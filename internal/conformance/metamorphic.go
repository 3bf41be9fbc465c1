package conformance

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/trace"
	"github.com/blackbox-rt/modelgen/internal/verify"
)

// Metamorphic checks result invariance under transformations that the
// model of computation says cannot matter:
//
//   - message relabeling: occurrence labels are opaque, so renaming
//     every message uniformly must not change anything;
//   - time translation: candidate feasibility uses only comparisons
//     between event times, so shifting the whole trace by a constant
//     must not change anything;
//   - period permutation (exact mode only): the instances of a trace
//     are a set (Definition 1) and the exact algorithm computes the
//     most specific consistent set, so reversing the period sequence
//     must yield the same final hypothesis set. The bounded heuristic
//     is genuinely order-sensitive (merging depends on arrival order),
//     so the permutation check only applies when opt.Bound == 0.
//
// The baseline run uses opt as given; ErrTooManyHypotheses skips the
// oracle.
func Metamorphic(tr *trace.Trace, opt learner.Options) ([]Violation, error) {
	base, err := learner.Learn(tr, opt)
	if errors.Is(err, learner.ErrTooManyHypotheses) {
		return nil, fmt.Errorf("%w: %v", ErrOracleSkipped, err)
	}
	if err != nil {
		return nil, err
	}
	want := resultSig(base)
	var out []Violation

	check := func(property string, mutated *trace.Trace, mopt learner.Options) {
		r, err := learner.Learn(mutated, mopt)
		if err != nil {
			out = append(out, violationf(property, "transformed run failed: %v", err))
			return
		}
		if got := resultSig(r); !reflect.DeepEqual(got, want) {
			out = append(out, violationf(property, "result changed:\n got %v\nwant %v", got, want))
		}
	}

	check("metamorphic/message-relabel", relabelMessages(tr), opt)
	check("metamorphic/time-translation", translate(tr, 1_000_000), opt)
	if opt.Bound <= 0 {
		check("metamorphic/period-permutation", permutePeriods(tr, reversed(len(tr.Periods))), opt)
		check("metamorphic/period-permutation", permutePeriods(tr, shuffled(len(tr.Periods), 0xbadc0de)), opt)
	}
	return out, nil
}

// resultSig collapses a learning result into a comparable signature:
// every hypothesis key in order, the LUB and the convergence flag
// (mirrors the differential property test).
func resultSig(r *learner.Result) []string {
	sig := make([]string, 0, len(r.Hypotheses)+2)
	for _, d := range r.Hypotheses {
		sig = append(sig, d.Key())
	}
	return append(sig, "LUB:"+r.LUB.Key(), fmt.Sprintf("converged:%v", r.Converged))
}

// relabelMessages renames every message occurrence uniformly (a
// bijective relabeling), preserving per-period label uniqueness.
func relabelMessages(tr *trace.Trace) *trace.Trace {
	cp := tr.Clone()
	for _, p := range cp.Periods {
		for i := range p.Msgs {
			p.Msgs[i].ID = "relabel_" + p.Msgs[i].ID
		}
	}
	return cp
}

// translate shifts every timestamp of the trace by delta.
func translate(tr *trace.Trace, delta int64) *trace.Trace {
	cp := tr.Clone()
	for _, p := range cp.Periods {
		for t, iv := range p.Execs {
			p.Execs[t] = trace.Interval{Start: iv.Start + delta, End: iv.End + delta}
		}
		for i := range p.Msgs {
			p.Msgs[i].Rise += delta
			p.Msgs[i].Fall += delta
		}
	}
	return cp
}

// permutePeriods reorders the trace's periods by the given index
// permutation, reindexing densely so the result is a well-formed
// instance sequence.
func permutePeriods(tr *trace.Trace, perm []int) *trace.Trace {
	cp := trace.New(tr.Tasks)
	for newIdx, oldIdx := range perm {
		p := tr.Periods[oldIdx].Clone()
		p.Index = newIdx
		cp.Periods = append(cp.Periods, p)
	}
	return cp
}

func reversed(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = n - 1 - i
	}
	return out
}

func shuffled(n int, seed int64) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// VerifierConsistency checks the verification layer's internal
// consistency on a learned dependency function — the verifier leg of
// the parser → engine → verifier conformance chain. The checks are
// definitional redundancies: the structure report's counts must
// partition the pair set, MustExecute must agree with the lattice
// predicate it is defined by, the must-closure must be transitive and
// contain every direct → edge, and forward reachability must contain
// its root and every direct successor.
func VerifierConsistency(d *depfunc.DepFunc) []Violation {
	var out []Violation
	ts := d.TaskSet()
	rep := verify.Analyze(d)
	if got := rep.Independent + rep.Firm + rep.Conditional + rep.Unknown; got != rep.TotalPairs {
		out = append(out, violationf("verify/report-partitions-pairs",
			"category counts sum to %d, want TotalPairs %d", got, rep.TotalPairs))
	}
	if rep.OrderingKnown < 0 || rep.OrderingKnown > 1 || rep.InterleavingReduction < 0 || rep.InterleavingReduction > 1 {
		out = append(out, violationf("verify/report-fractions",
			"OrderingKnown %v or InterleavingReduction %v out of [0,1]", rep.OrderingKnown, rep.InterleavingReduction))
	}
	closure := verify.MustClosure(d)
	for i := 0; i < ts.Len(); i++ {
		a := ts.Name(i)
		reach := map[string]bool{}
		for _, t := range verify.Reachable(d, a) {
			reach[t] = true
		}
		if !reach[a] {
			out = append(out, violationf("verify/reachable-contains-root", "Reachable(%s) misses %s", a, a))
		}
		for j := 0; j < ts.Len(); j++ {
			if i == j {
				continue
			}
			b := ts.Name(j)
			v := d.At(i, j)
			if verify.MustExecute(d, a, b) != lattice.HasExecConstraint(v) {
				out = append(out, violationf("verify/must-execute-definition",
					"MustExecute(%s,%s) disagrees with HasExecConstraint(%v)", a, b, v))
			}
			if verify.Determines(d, a, b) && !closure[[2]string{a, b}] {
				out = append(out, violationf("verify/closure-contains-edges",
					"direct → edge (%s,%s) missing from MustClosure", a, b))
			}
			if (v == lattice.Fwd || v == lattice.FwdMaybe) && !reach[b] {
				out = append(out, violationf("verify/reachable-contains-successors",
					"forward edge (%s,%s) but %s not in Reachable(%s)", a, b, b, a))
			}
		}
	}
	for ab := range closure {
		for bc := range closure {
			if ab[1] == bc[0] && ab[0] != bc[1] && !closure[[2]string{ab[0], bc[1]}] {
				out = append(out, violationf("verify/closure-transitive",
					"(%s,%s) and (%s,%s) in closure but (%s,%s) is not",
					ab[0], ab[1], bc[0], bc[1], ab[0], bc[1]))
			}
		}
	}
	return out
}
