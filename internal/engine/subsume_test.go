package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// assumedWithin reports whether every pool pair h1 assumed is assumed
// by h2 too. Every assumption of subsumeInput's hypotheses comes from
// the pool, so this is asm(h1) ⊆ asm(h2), decided through the
// assumption list's own membership test rather than a bitset.
func assumedWithin(h1, h2 *hypothesis.Hypothesis, pool []depfunc.Pair) bool {
	for _, p := range pool {
		if h1.Assumed(p) && !h2.Assumed(p) {
			return false
		}
	}
	return true
}

// allPairsSubsume is the reference of the in-period subsumption rule:
// h2 is dropped iff some other member h1 has D(h1) ⊑ D(h2) and
// asm(h1) ⊆ asm(h2). hs must be free of equal states.
func allPairsSubsume(hs []*hypothesis.Hypothesis, pool []depfunc.Pair) []bool {
	dropped := make([]bool, len(hs))
	for j, h2 := range hs {
		for i, h1 := range hs {
			if i != j && h1.D.Leq(&h2.D) && assumedWithin(h1, h2, pool) {
				dropped[j] = true
				break
			}
		}
	}
	return dropped
}

// subsumeInput returns a random in-period working set over ts without
// equal states, and the pool of pairs its assumptions come from. A few
// base functions hold random entries at the pool's positions; the set
// grows by Assume along random pool pairs from random members, with
// random conditional or unconditional stamps, and some members forget
// a random pair as dead-assumption forgetting does. Assuming a pair
// whose entries already hold the stamps leaves D unchanged, which
// yields copy-on-write aliases of the parent: equal functions under
// nested assumption sets. Siblings that forget the pair each assumed
// end up with equal functions and equal or incomparable sets. The pool
// always holds the pair (n-1, n-2), whose assumption bit lies in the
// bitset's last word.
func subsumeInput(rng *rand.Rand, ts *depfunc.TaskSet, size int) ([]*hypothesis.Hypothesis, []depfunc.Pair) {
	n := ts.Len()
	pool := []depfunc.Pair{{S: n - 1, R: n - 2}}
	for len(pool) < 5+rng.Intn(4) {
		s, r := rng.Intn(n), rng.Intn(n-1)
		if r >= s {
			r++
		}
		pool = append(pool, depfunc.Pair{S: s, R: r})
	}
	fwds := []lattice.Value{lattice.Fwd, lattice.FwdMaybe}
	bwds := []lattice.Value{lattice.Bwd, lattice.BwdMaybe}
	var all []*hypothesis.Hypothesis
	for b := 1 + rng.Intn(3); b > 0; b-- {
		d := depfunc.Bottom(ts)
		for k := rng.Intn(4); k > 0; k-- {
			p := pool[rng.Intn(len(pool))]
			d.JoinAt(p.S, p.R, fwds[rng.Intn(2)])
			d.JoinAt(p.R, p.S, bwds[rng.Intn(2)])
		}
		all = append(all, hypothesis.FromDepFunc(d))
		d.Release()
	}
	for tries := 0; len(all) < 3*size && tries < 20*size; tries++ {
		h := all[rng.Intn(len(all))]
		p := pool[rng.Intn(len(pool))]
		c := h.Assume(p, fwds[rng.Intn(2)], bwds[rng.Intn(2)], hypothesis.StepCtx{})
		if c == nil {
			continue
		}
		if rng.Intn(4) == 0 {
			q := pool[rng.Intn(len(pool))]
			c.RetainAssumptions(func(p depfunc.Pair) bool { return p != q }, nil)
		}
		all = append(all, c)
	}
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	seen := map[string]bool{}
	var hs []*hypothesis.Hypothesis
	for _, h := range all {
		if k := h.Key(); !seen[k] && len(hs) < size {
			seen[k] = true
			hs = append(hs, h)
		}
	}
	return hs, pool
}

// TestSubsumeMatchesAllPairsReference drives the engine's subsumption
// and the all-pairs reference over random working sets on assumption
// bitsets of one, two and six words (7, 9 and 18 tasks), through one
// engine reused message after message. Both must keep the same
// hypotheses in input order, and the engine's per-period subsumed
// counter must grow by the reference's drop count. Dropped hypotheses go back to the
// arena; the survivors, some of which share their matrix with a
// dropped alias, must keep their state, and the slots past the
// survivors must be cleared.
func TestSubsumeMatchesAllPairsReference(t *testing.T) {
	for _, n := range []int{7, 9, 18} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("t%d", i)
		}
		ts := depfunc.MustTaskSet(names...)
		rng := rand.New(rand.NewSource(int64(n)))
		e := newEngine(ts, Config{})
		var drops, equalD, nestedEqualD, incomparableEqualD int
		for msg := 0; msg < 60; msg++ {
			hs, pool := subsumeInput(rng, ts, 2+rng.Intn(200))
			dropped := allPairsSubsume(hs, pool)
			var want []*hypothesis.Hypothesis
			for i, h := range hs {
				if !dropped[i] {
					want = append(want, h)
				}
			}
			wantDrops := len(hs) - len(want)
			for i, a := range hs {
				for _, b := range hs[i+1:] {
					if !a.D.Equal(&b.D) {
						continue
					}
					equalD++
					switch {
					case assumedWithin(a, b, pool) || assumedWithin(b, a, pool):
						nestedEqualD++
					default:
						incomparableEqualD++
					}
				}
			}
			keys := make(map[*hypothesis.Hypothesis]string, len(want))
			for _, h := range want {
				keys[h] = h.Key()
			}

			in := append([]*hypothesis.Hypothesis(nil), hs...)
			before := e.subsumed
			got := e.subsume(in)

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d message %d: kept %d, reference kept %d, or the order differs", n, msg, len(got), len(want))
			}
			if got := e.subsumed - before; got != wantDrops {
				t.Fatalf("n=%d message %d: subsumed counter grew by %d, reference dropped %d", n, msg, got, wantDrops)
			}
			for _, h := range got {
				if h.Key() != keys[h] {
					t.Fatalf("n=%d message %d: a survivor changed state", n, msg)
				}
			}
			for i, h := range in[len(got):] {
				if h != nil {
					t.Fatalf("n=%d message %d: slot %d past the survivors still holds a hypothesis", n, msg, len(got)+i)
				}
			}
			drops += wantDrops
		}
		// The premise: the inputs drop hypotheses, and hold equal
		// functions under both nested and incomparable assumption
		// sets.
		if drops == 0 || nestedEqualD == 0 || incomparableEqualD == 0 {
			t.Fatalf("n=%d: %d drops, %d equal-D pairs (%d nested, %d incomparable)",
				n, drops, equalD, nestedEqualD, incomparableEqualD)
		}
		t.Logf("n=%d: %d drops, %d equal-D pairs (%d nested, %d incomparable)",
			n, drops, equalD, nestedEqualD, incomparableEqualD)
	}
}

// TestSubsumeKeepsIncomparableAssumptions: a strictly more specific
// function does not subsume a hypothesis whose assumption set lacks
// one of its pairs, but does once the sets nest.
func TestSubsumeKeepsIncomparableAssumptions(t *testing.T) {
	ts := depfunc.MustTaskSet("a", "b", "c")
	ab, bc := depfunc.Pair{S: 0, R: 1}, depfunc.Pair{S: 1, R: 2}
	ctx := hypothesis.StepCtx{}
	base := hypothesis.Bottom(ts)
	spec := base.Assume(ab, lattice.Fwd, lattice.Bwd, ctx) // asm {ab}
	// Both hold the ab and bc stamps, so D(spec) ⊏ D: one assumed
	// only bc (ab was forgotten), the other both.
	forgot := base.Assume(ab, lattice.Fwd, lattice.Bwd, ctx)
	forgot.RetainAssumptions(func(p depfunc.Pair) bool { return p != ab }, nil)
	forgot = forgot.Assume(bc, lattice.Fwd, lattice.Bwd, ctx)
	both := spec.Assume(bc, lattice.Fwd, lattice.Bwd, ctx)
	e := newEngine(ts, Config{})
	if got := e.subsume([]*hypothesis.Hypothesis{forgot, spec}); len(got) != 2 {
		t.Fatalf("kept %d; asm {ab} ⊄ {bc}, so both must stay", len(got))
	}
	if got := e.subsume([]*hypothesis.Hypothesis{both, spec}); len(got) != 1 || got[0] != spec {
		t.Fatalf("kept %d; want only the subsuming hypothesis", len(got))
	}
}
