// Package reach implements explicit-state reachability analysis over
// the per-period task-interleaving state space, quantifying the
// paper's claim that the learned dependencies "reduce the state space
// that needs to be analyzed with other methods … such as model
// checking by means of reachability analysis".
//
// The abstraction: within one period every task completes at most
// once, so a state is the set of tasks that have completed. With no
// dependency knowledge (the pessimistic baseline) any task may
// complete at any time and all 2^n subsets are reachable. A learned
// dependency function orders completions: d(a,b) = → or ← means a and
// b always co-execute with a fixed completion order, so any state
// containing the downstream task without the upstream one is
// unreachable. The reachable states are exactly the downsets of the
// precedence relation, and their count is the size of the state space
// a model checker must explore.
//
// Besides counting, the package answers reachability queries ("is
// there a reachable state where Q has completed but O has not?") —
// the concrete form of the safety proofs Section 3.4 sketches.
package reach

import (
	"fmt"
	"math/bits"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// MaxTasks bounds the explicit-state exploration (states are uint32
// bitmasks; 2^24 states ≈ 16M already stretches memory).
const MaxTasks = 24

// Precedence extracts the completion-order constraints of a learned
// dependency function: pred[b] is the bitmask of tasks that must
// complete before task b may complete. d(a,b) = → contributes a ≺ b
// (a determines b: b's activation, and hence completion, follows a's
// completion); d(a,b) = ← contributes b ≺ a.
func Precedence(d *depfunc.DepFunc) []uint32 {
	n := d.TaskSet().Len()
	pred := make([]uint32, n)
	d.Entries(func(i, j int, v lattice.Value) {
		switch v {
		case lattice.Fwd:
			pred[j] |= 1 << uint(i) // i before j
		case lattice.Bwd:
			pred[i] |= 1 << uint(j) // j before i
		}
	})
	return pred
}

// Result summarizes an exploration.
type Result struct {
	Tasks int
	// States is the number of reachable completion states (including
	// the empty and full states).
	States int
	// Baseline is 2^Tasks, the pessimistic all-independent count.
	Baseline int
	// Reduction is 1 - States/Baseline.
	Reduction float64
}

// Explore counts the reachable completion states under the precedence
// constraints extracted from d. It returns an error for task sets
// larger than MaxTasks.
func Explore(d *depfunc.DepFunc) (Result, error) {
	n := d.TaskSet().Len()
	if n > MaxTasks {
		return Result{}, fmt.Errorf("reach: %d tasks exceed the explicit-state limit of %d", n, MaxTasks)
	}
	pred := Precedence(d)
	seen := make(map[uint32]bool, 1<<uint(min(n, 20)))
	stack := []uint32{0}
	seen[0] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for t := 0; t < n; t++ {
			bit := uint32(1) << uint(t)
			if s&bit != 0 {
				continue
			}
			if s&pred[t] != pred[t] {
				continue // a predecessor has not completed
			}
			ns := s | bit
			if !seen[ns] {
				seen[ns] = true
				stack = append(stack, ns)
			}
		}
	}
	baseline := 1 << uint(n)
	return Result{
		Tasks:     n,
		States:    len(seen),
		Baseline:  baseline,
		Reduction: 1 - float64(len(seen))/float64(baseline),
	}, nil
}

// Reachable reports whether a completion state satisfying the
// predicate is reachable, and returns a witness state (as a set of
// completed task names) if so. The predicate receives the bitmask of
// completed tasks; use the task set's Index to build queries.
func Reachable(d *depfunc.DepFunc, pred func(state uint32) bool) (bool, []string, error) {
	n := d.TaskSet().Len()
	if n > MaxTasks {
		return false, nil, fmt.Errorf("reach: %d tasks exceed the explicit-state limit of %d", n, MaxTasks)
	}
	prec := Precedence(d)
	seen := make(map[uint32]bool)
	stack := []uint32{0}
	seen[0] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if pred(s) {
			return true, maskToNames(d.TaskSet(), s), nil
		}
		for t := 0; t < n; t++ {
			bit := uint32(1) << uint(t)
			if s&bit != 0 || s&prec[t] != prec[t] {
				continue
			}
			ns := s | bit
			if !seen[ns] {
				seen[ns] = true
				stack = append(stack, ns)
			}
		}
	}
	return false, nil, nil
}

// CompletedWithout builds a query predicate: a state where `done` has
// completed but `notDone` has not. Combined with Reachable this
// answers the paper-style question "can Q ever complete before O?".
func CompletedWithout(d *depfunc.DepFunc, done, notDone string) (func(uint32) bool, error) {
	ts := d.TaskSet()
	i, j := ts.Index(done), ts.Index(notDone)
	if i < 0 {
		return nil, fmt.Errorf("reach: unknown task %q", done)
	}
	if j < 0 {
		return nil, fmt.Errorf("reach: unknown task %q", notDone)
	}
	bi, bj := uint32(1)<<uint(i), uint32(1)<<uint(j)
	return func(s uint32) bool { return s&bi != 0 && s&bj == 0 }, nil
}

func maskToNames(ts *depfunc.TaskSet, s uint32) []string {
	out := make([]string, 0, bits.OnesCount32(s))
	for i := 0; i < ts.Len(); i++ {
		if s&(1<<uint(i)) != 0 {
			out = append(out, ts.Name(i))
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
