package depfunc

import (
	"fmt"
	"slices"

	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// Match implements the matching function M : H × I → boolean
// (Definition 3). A dependency function d matches a period i iff
//
//  1. every unconditional entry is respected: d(a,b) ∈ {→, ←, ↔}
//     implies that whenever a executed in the period, b executed too;
//     and
//  2. the period's messages can be explained: there exists an
//     assignment of each message occurrence to a timing-feasible
//     (sender, receiver) pair such that distinct messages use distinct
//     ordered pairs (at most one message per pair per period) and the
//     hypothesis admits a message on that pair, i.e. → ⊑ d(s,r) and
//     ← ⊑ d(r,s).
//
// Condition 2 is a bipartite matching of messages to ordered pairs;
// Match solves it with a Matcher.
func Match(d *DepFunc, p *trace.Period, pol CandidatePolicy) bool {
	return MatchExplain(d, p, pol) == nil
}

// MatchExplain is Match with a diagnosis: it returns nil if d matches
// the period, and otherwise an error describing the first violated
// condition.
func MatchExplain(d *DepFunc, p *trace.Period, pol CandidatePolicy) error {
	ts := d.ts
	executed := make([]bool, ts.Len())
	for name := range p.Execs {
		if i := ts.Index(name); i >= 0 {
			executed[i] = true
		}
	}
	// Condition 1: unconditional dependencies.
	var violation error
	d.Entries(func(i, j int, v lattice.Value) {
		if violation == nil && lattice.HasExecConstraint(v) && executed[i] && !executed[j] {
			violation = fmt.Errorf("depfunc: period %d: d(%s,%s)=%s but %s executed without %s",
				p.Index, ts.Name(i), ts.Name(j), v, ts.Name(i), ts.Name(j))
		}
	})
	if violation != nil {
		return violation
	}
	// Condition 2: message assignment.
	cands := Candidates(p, ts, pol)
	allowed := make([][]Pair, len(cands))
	for mi, pairs := range cands {
		for _, pr := range pairs {
			if lattice.AllowsOutgoingMessage(d.At(pr.S, pr.R)) &&
				lattice.AllowsIncomingMessage(d.At(pr.R, pr.S)) {
				allowed[mi] = append(allowed[mi], pr)
			}
		}
		if len(allowed[mi]) == 0 {
			return fmt.Errorf("depfunc: period %d: message %q has no admissible sender/receiver pair",
				p.Index, p.Msgs[mi].ID)
		}
	}
	var m Matcher
	if !m.Assignable(allowed) {
		return fmt.Errorf("depfunc: period %d: no consistent assignment of %d messages to sender/receiver pairs",
			p.Index, len(p.Msgs))
	}
	return nil
}

// Matcher decides whether a period's messages can be explained on
// distinct (sender, receiver) pairs, at most one message per ordered
// pair: a bipartite matching of messages to pairs, grown one message
// at a time along augmenting paths (Kuhn's algorithm). Its scratch is
// per message and reused call after call, so a Matcher that has once
// grown to a period's message count allocates nothing. The zero value
// is ready to use; a Matcher is not safe for concurrent use.
type Matcher struct {
	pair  []Pair   // message → its assigned pair, for the messages matched so far
	seen  []uint32 // message → the last augmentation round that visited it
	round uint32
}

// Assignable reports whether every message can be assigned its own
// pair, allowed[m] listing the pairs message m may use. A message
// without pairs makes the answer false.
func (m *Matcher) Assignable(allowed [][]Pair) bool {
	if k := len(allowed); cap(m.pair) < k {
		m.pair = make([]Pair, k)
		m.seen = make([]uint32, k)
	}
	clear(m.seen[:len(allowed)])
	for mi := range allowed {
		m.round = uint32(mi + 1)
		if !m.augment(allowed, mi, mi) {
			return false
		}
	}
	return true
}

// augment looks for a pair for message v while messages 0..matched-1
// hold one each: it takes a free pair of v's, or one whose holder can
// move to another of its own pairs, and reports whether it found one.
// Each round visits a message at most once.
func (m *Matcher) augment(allowed [][]Pair, v, matched int) bool {
	m.seen[v] = m.round
	for _, pr := range allowed[v] {
		o := slices.Index(m.pair[:matched], pr)
		if o < 0 || m.seen[o] != m.round && m.augment(allowed, o, matched) {
			m.pair[v] = pr
			return true
		}
	}
	return false
}

// MatchTrace reports whether d matches every period of the trace
// (M(h, I) in the notation of Definition 3). It returns the index of
// the first period that fails, or -1 if all match.
func MatchTrace(d *DepFunc, tr *trace.Trace, pol CandidatePolicy) (bool, int) {
	for i, p := range tr.Periods {
		if !Match(d, p, pol) {
			return false, i
		}
	}
	return true, -1
}
