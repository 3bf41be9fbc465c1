// Package sat provides a small DPLL satisfiability solver and a CNF
// encoding of the learner's message-assignment problem.
//
// The paper proves (Theorem 1, by reduction from SAT) that computing
// the set of most specific hypotheses is NP-hard. This package plays
// the substrate role on the other side of that bridge: the
// within-period sender/receiver assignment that the matching function
// M must exhibit is encoded into CNF and solved with DPLL, giving an
// independent implementation that cross-checks the augmenting-path
// matcher in depfunc (see MatchPeriod).
package sat

import (
	"errors"
	"fmt"
	"sort"
)

// Literal is a propositional literal: +v is variable v, -v its
// negation. Variables are numbered from 1.
type Literal int

// Var returns the literal's variable.
func (l Literal) Var() int {
	if l < 0 {
		return int(-l)
	}
	return int(l)
}

// Positive reports whether the literal is unnegated.
func (l Literal) Positive() bool { return l > 0 }

// Clause is a disjunction of literals.
type Clause []Literal

// CNF is a conjunction of clauses over variables 1..NumVars.
type CNF struct {
	NumVars int
	Clauses []Clause
}

// NewCNF returns an empty formula over n variables.
func NewCNF(n int) *CNF { return &CNF{NumVars: n} }

// AddClause appends a clause. An empty clause makes the formula
// trivially unsatisfiable.
func (c *CNF) AddClause(lits ...Literal) error {
	for _, l := range lits {
		if l == 0 || l.Var() > c.NumVars {
			return fmt.Errorf("sat: literal %d out of range (1..%d)", l, c.NumVars)
		}
	}
	c.Clauses = append(c.Clauses, append(Clause(nil), lits...))
	return nil
}

// MustAddClause is AddClause for known-good literals.
func (c *CNF) MustAddClause(lits ...Literal) {
	if err := c.AddClause(lits...); err != nil {
		panic(err)
	}
}

// Assignment maps variables (1-indexed) to truth values. Index 0 is
// unused.
type Assignment []bool

// Stats instruments a solver run.
type Stats struct {
	Decisions    int
	Propagations int
}

// Solve decides satisfiability by DPLL with unit propagation and pure
// literal elimination. If satisfiable, it returns a satisfying total
// assignment.
func Solve(c *CNF) (Assignment, bool, Stats) {
	s := &solver{n: c.NumVars, val: make([]int8, c.NumVars+1)}
	for _, cl := range c.Clauses {
		s.clauses = append(s.clauses, cl)
	}
	ok := s.dpll()
	if !ok {
		return nil, false, s.stats
	}
	out := make(Assignment, c.NumVars+1)
	for v := 1; v <= c.NumVars; v++ {
		out[v] = s.val[v] == 1
	}
	return out, true, s.stats
}

// Satisfies reports whether the assignment satisfies the formula.
func Satisfies(c *CNF, a Assignment) bool {
	for _, cl := range c.Clauses {
		ok := false
		for _, l := range cl {
			v := l.Var()
			if v < len(a) && a[v] == l.Positive() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

type solver struct {
	n       int
	val     []int8 // 0 unassigned, 1 true, -1 false
	clauses []Clause
	stats   Stats
}

func (s *solver) litVal(l Literal) int8 {
	v := s.val[l.Var()]
	if l < 0 {
		return -v
	}
	return v
}

// simplify runs unit propagation and pure-literal elimination to a
// fixpoint. It returns false on conflict, along with the trail of
// assignments it made (for backtracking).
func (s *solver) simplify(trail *[]int) bool {
	for {
		changed := false
		polarity := make([]int8, s.n+1) // 1 pos only, -1 neg only, 2 both, 0 unseen
		for _, cl := range s.clauses {
			satisfied := false
			var unit Literal
			unassigned := 0
			for _, l := range cl {
				switch s.litVal(l) {
				case 1:
					satisfied = true
				case 0:
					unassigned++
					unit = l
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				continue
			}
			if unassigned == 0 {
				return false // conflict
			}
			if unassigned == 1 {
				s.assign(unit, trail)
				s.stats.Propagations++
				changed = true
				continue
			}
			for _, l := range cl {
				if s.litVal(l) != 0 {
					continue
				}
				v := l.Var()
				p := int8(1)
				if l < 0 {
					p = -1
				}
				switch polarity[v] {
				case 0:
					polarity[v] = p
				case p:
				default:
					polarity[v] = 2
				}
			}
		}
		if changed {
			continue
		}
		// Pure literals.
		for v := 1; v <= s.n; v++ {
			if s.val[v] == 0 && (polarity[v] == 1 || polarity[v] == -1) {
				l := Literal(v)
				if polarity[v] == -1 {
					l = -l
				}
				s.assign(l, trail)
				s.stats.Propagations++
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
}

func (s *solver) assign(l Literal, trail *[]int) {
	v := l.Var()
	if l > 0 {
		s.val[v] = 1
	} else {
		s.val[v] = -1
	}
	*trail = append(*trail, v)
}

func (s *solver) undo(trail []int) {
	for _, v := range trail {
		s.val[v] = 0
	}
}

func (s *solver) dpll() bool {
	var trail []int
	if !s.simplify(&trail) {
		s.undo(trail)
		return false
	}
	// Pick the first unassigned variable.
	branch := 0
	for v := 1; v <= s.n; v++ {
		if s.val[v] == 0 {
			branch = v
			break
		}
	}
	if branch == 0 {
		return true // total assignment, all clauses satisfied
	}
	s.stats.Decisions++
	for _, l := range []Literal{Literal(branch), -Literal(branch)} {
		var sub []int
		s.assign(l, &sub)
		if s.dpll() {
			return true
		}
		s.undo(sub)
	}
	s.undo(trail)
	return false
}

// ErrParse reports a malformed DIMACS input.
var ErrParse = errors.New("sat: malformed DIMACS input")

// ParseDIMACS parses the classic "p cnf V C" format.
func ParseDIMACS(input string) (*CNF, error) {
	var cnf *CNF
	var cur Clause
	lines := splitLines(input)
	for _, ln := range lines {
		fs := fields(ln)
		if len(fs) == 0 || fs[0] == "c" {
			continue
		}
		if fs[0] == "p" {
			if len(fs) != 4 || fs[1] != "cnf" {
				return nil, fmt.Errorf("%w: bad problem line %q", ErrParse, ln)
			}
			var nv, nc int
			if _, err := fmt.Sscanf(fs[2]+" "+fs[3], "%d %d", &nv, &nc); err != nil {
				return nil, fmt.Errorf("%w: %v", ErrParse, err)
			}
			if nv < 0 || nc < 0 {
				return nil, fmt.Errorf("%w: negative counts in problem line %q", ErrParse, ln)
			}
			cnf = NewCNF(nv)
			continue
		}
		if cnf == nil {
			return nil, fmt.Errorf("%w: clause before problem line", ErrParse)
		}
		for _, f := range fs {
			var l int
			if _, err := fmt.Sscanf(f, "%d", &l); err != nil {
				return nil, fmt.Errorf("%w: bad literal %q", ErrParse, f)
			}
			if l == 0 {
				if err := cnf.AddClause(cur...); err != nil {
					return nil, err
				}
				cur = nil
				continue
			}
			cur = append(cur, Literal(l))
		}
	}
	if cnf == nil {
		return nil, fmt.Errorf("%w: missing problem line", ErrParse)
	}
	if len(cur) > 0 {
		if err := cnf.AddClause(cur...); err != nil {
			return nil, err
		}
	}
	return cnf, nil
}

// DIMACS renders the formula in DIMACS format.
func (c *CNF) DIMACS() string {
	out := fmt.Sprintf("p cnf %d %d\n", c.NumVars, len(c.Clauses))
	for _, cl := range c.Clauses {
		line := ""
		lits := append(Clause(nil), cl...)
		sort.Slice(lits, func(i, j int) bool { return lits[i].Var() < lits[j].Var() })
		for _, l := range lits {
			line += fmt.Sprintf("%d ", l)
		}
		out += line + "0\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return out
}

func fields(s string) []string {
	var out []string
	start := -1
	for i := 0; i <= len(s); i++ {
		isSpace := i == len(s) || s[i] == ' ' || s[i] == '\t' || s[i] == '\r'
		if isSpace {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	return out
}
