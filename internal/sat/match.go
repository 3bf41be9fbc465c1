package sat

import (
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// EncodeAssignment builds the CNF for the within-period message
// assignment problem: variable x_{m,k} means "message m is explained
// by its k-th allowed (sender, receiver) pair". The clauses assert
// that every message picks at least one pair, at most one pair, and
// that no ordered pair explains two messages (at most one message per
// pair per period).
func EncodeAssignment(allowed [][]depfunc.Pair) *CNF {
	nVars := 0
	varOf := make([][]Literal, len(allowed))
	for mi, pairs := range allowed {
		varOf[mi] = make([]Literal, len(pairs))
		for k := range pairs {
			nVars++
			varOf[mi][k] = Literal(nVars)
		}
	}
	cnf := NewCNF(nVars)
	// At least / at most one pair per message.
	for mi, pairs := range allowed {
		clause := make(Clause, len(pairs))
		for k := range pairs {
			clause[k] = varOf[mi][k]
		}
		cnf.MustAddClause(clause...)
		for a := 0; a < len(pairs); a++ {
			for b := a + 1; b < len(pairs); b++ {
				cnf.MustAddClause(-varOf[mi][a], -varOf[mi][b])
			}
		}
	}
	// At most one message per ordered pair.
	byPair := map[depfunc.Pair][]Literal{}
	for mi, pairs := range allowed {
		for k, pr := range pairs {
			byPair[pr] = append(byPair[pr], varOf[mi][k])
		}
	}
	for _, lits := range byPair {
		for a := 0; a < len(lits); a++ {
			for b := a + 1; b < len(lits); b++ {
				cnf.MustAddClause(-lits[a], -lits[b])
			}
		}
	}
	return cnf
}

// MatchPeriod reimplements the matching function M of depfunc.Match
// with the assignment search delegated to the DPLL solver. It exists
// to cross-validate depfunc's augmenting-path matcher: the two must
// agree on every input.
func MatchPeriod(d *depfunc.DepFunc, p *trace.Period, pol depfunc.CandidatePolicy) bool {
	ts := d.TaskSet()
	executed := make([]bool, ts.Len())
	for name := range p.Execs {
		if i := ts.Index(name); i >= 0 {
			executed[i] = true
		}
	}
	violated := false
	d.Entries(func(i, j int, v lattice.Value) {
		if lattice.HasExecConstraint(v) && executed[i] && !executed[j] {
			violated = true
		}
	})
	if violated {
		return false
	}
	cands := depfunc.Candidates(p, ts, pol)
	allowed := make([][]depfunc.Pair, len(cands))
	for mi, pairs := range cands {
		for _, pr := range pairs {
			if lattice.AllowsOutgoingMessage(d.At(pr.S, pr.R)) &&
				lattice.AllowsIncomingMessage(d.At(pr.R, pr.S)) {
				allowed[mi] = append(allowed[mi], pr)
			}
		}
		if len(allowed[mi]) == 0 {
			return false
		}
	}
	_, ok, _ := Solve(EncodeAssignment(allowed))
	return ok
}
