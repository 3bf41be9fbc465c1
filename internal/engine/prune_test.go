package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// allPairsPrune is the reference most-specific prune the frontier scan
// replaced: dedup through a per-call fingerprint map, a stable sort by
// weight, then a test of every hypothesis against every strictly
// lighter unique one, pruned or not, with the strict order Lt. It also
// returns how many hypotheses it unified as duplicates and how many it
// pruned as redundant.
func allPairsPrune(hs []*hypothesis.Hypothesis) (out []*hypothesis.Hypothesis, duplicates, redundants int) {
	seen := make(map[uint64][]*depfunc.DepFunc, len(hs))
	uniq := make([]*hypothesis.Hypothesis, 0, len(hs))
	for _, h := range hs {
		fp := h.D.Fingerprint()
		dup := false
		for _, o := range seen[fp] {
			if h.D.Equal(o) {
				dup = true
				break
			}
		}
		if !dup {
			seen[fp] = append(seen[fp], &h.D)
			uniq = append(uniq, h)
		} else {
			duplicates++
		}
	}
	slices.SortStableFunc(uniq, func(a, b *hypothesis.Hypothesis) int { return a.Weight() - b.Weight() })
	out = make([]*hypothesis.Hypothesis, 0, len(uniq))
	for i, h := range uniq {
		redundant := false
		for j := 0; j < i; j++ {
			if uniq[j].Weight() >= h.Weight() {
				break
			}
			if uniq[j].D.Lt(&h.D) {
				redundant = true
				break
			}
		}
		if !redundant {
			out = append(out, h)
		} else {
			redundants++
		}
	}
	return out, duplicates, redundants
}

// pruneInput returns a random end-of-period working set over n tasks:
// hypotheses built from a few entries drawn out of a small pool of
// positions, so weights tie often and many pairs are comparable, plus
// forced duplicates of earlier hypotheses (deep copies, and
// copy-on-write aliases made by merging a hypothesis with itself). Assumption sets are empty, as after ClearAssumptions.
func pruneInput(rng *rand.Rand, ts *depfunc.TaskSet, size int) []*hypothesis.Hypothesis {
	n := ts.Len()
	type pos struct{ i, j int }
	pool := make([]pos, 6+rng.Intn(6))
	for k := range pool {
		i, j := rng.Intn(n), rng.Intn(n-1)
		if j >= i {
			j++
		}
		pool[k] = pos{i, j}
	}
	vals := []lattice.Value{lattice.Fwd, lattice.Bwd, lattice.Bi, lattice.FwdMaybe, lattice.BwdMaybe}
	hs := make([]*hypothesis.Hypothesis, 0, size)
	for len(hs) < size {
		if len(hs) > 0 && rng.Intn(4) == 0 {
			o := hs[rng.Intn(len(hs))]
			if rng.Intn(2) == 0 {
				hs = append(hs, o.Clone())
			} else {
				hs = append(hs, o.Merge(o, hypothesis.StepCtx{}))
			}
			continue
		}
		d := depfunc.Bottom(ts)
		for k := rng.Intn(4); k > 0; k-- {
			p := pool[rng.Intn(len(pool))]
			d.JoinAt(p.i, p.j, vals[rng.Intn(len(vals))])
		}
		hs = append(hs, hypothesis.FromDepFunc(d))
		d.Release()
	}
	return hs
}

// TestPruneMatchesAllPairsReference drives the engine's prune and the
// all-pairs reference over random working sets with forced duplicates
// and many weight ties, on matrices of three, four and sixteen words
// (7, 9 and 18 tasks), through one engine reused period after period.
// Both must keep the same hypotheses in the same order, so both drop
// the same number. No pruned hypothesis may
// stay reachable from the returned slice's spare capacity or from the
// engine's sort scratch.
func TestPruneMatchesAllPairsReference(t *testing.T) {
	for _, n := range []int{7, 9, 18} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("t%d", i)
		}
		ts := depfunc.MustTaskSet(names...)
		rng := rand.New(rand.NewSource(int64(n)))
		e := newEngine(ts, Config{})
		var duplicates, redundants int
		for period := 0; period < 40; period++ {
			hs := pruneInput(rng, ts, 1+rng.Intn(300))
			want, dup, red := allPairsPrune(hs)

			// Spare capacity past the live set, as a compacted
			// working set has.
			in := make([]*hypothesis.Hypothesis, len(hs), len(hs)+rng.Intn(8))
			copy(in, hs)
			got := e.pruneMostSpecific(in)

			if len(got) != len(want) {
				t.Fatalf("n=%d period %d: %d survivors, reference kept %d", n, period, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d period %d: survivor %d differs (weights %d vs %d)",
						n, period, i, got[i].Weight(), want[i].Weight())
				}
			}
			if drops := len(hs) - len(got); drops != dup+red {
				t.Fatalf("n=%d period %d: dropped %d, reference dropped %d duplicates + %d redundant",
					n, period, drops, dup, red)
			}
			duplicates += dup
			redundants += red
			kept := make(map[*hypothesis.Hypothesis]bool, len(got))
			for _, h := range got {
				kept[h] = true
			}
			for i, h := range got[len(got):cap(got)] {
				if h != nil && !kept[h] {
					t.Fatalf("n=%d period %d: pruned hypothesis left in spare capacity slot %d", n, period, len(got)+i)
				}
			}
			for i, h := range e.sorted[:cap(e.sorted)] {
				if h != nil {
					t.Fatalf("n=%d period %d: sort scratch slot %d still holds a hypothesis", n, period, i)
				}
			}
		}
		// The premise: the inputs exercise both kinds of pruning.
		if duplicates == 0 || redundants == 0 {
			t.Fatalf("n=%d: inputs pruned %d duplicates, %d redundant; want both", n, duplicates, redundants)
		}
		t.Logf("n=%d: pruned %d duplicates, %d redundant", n, duplicates, redundants)
	}
}

// TestMostSpecificRemovesRedundantAndDuplicates: a duplicate is
// unified and a strictly more general hypothesis is pruned, while an
// incomparable one survives.
func TestMostSpecificRemovesRedundantAndDuplicates(t *testing.T) {
	ts := depfunc.MustTaskSet("t1", "t2", "t3", "t4")
	spec := depfunc.Bottom(ts)
	spec.Set(0, 1, lattice.Fwd)
	dup := spec.Clone()
	gen := spec.Clone()
	gen.Set(0, 1, lattice.FwdMaybe) // strictly more general
	other := depfunc.Bottom(ts)
	other.Set(2, 3, lattice.Bwd) // incomparable
	var hs []*hypothesis.Hypothesis
	for _, d := range []*depfunc.DepFunc{gen, spec, dup, other} {
		hs = append(hs, hypothesis.FromDepFunc(d))
	}
	got := newEngine(ts, Config{}).pruneMostSpecific(hs)
	if len(got) != 2 {
		t.Fatalf("pruneMostSpecific kept %d, want 2", len(got))
	}
	if !got[0].D.Equal(gen) && !got[0].D.Equal(spec) && !got[0].D.Equal(other) {
		t.Error("unexpected survivor")
	}
	for _, h := range got {
		if h.D.Equal(gen) {
			t.Error("redundant hypothesis survived")
		}
	}
}

// TestMostSpecificPairwiseIncomparable: no survivor of a random set is
// ⊑ another.
func TestMostSpecificPairwiseIncomparable(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ts := depfunc.MustTaskSet("t1", "t2", "t3", "t4")
	var hs []*hypothesis.Hypothesis
	for k := 0; k < 40; k++ {
		d := depfunc.Bottom(ts)
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if i != j {
					d.Set(i, j, lattice.Value(r.Intn(7)))
				}
			}
		}
		hs = append(hs, hypothesis.FromDepFunc(d))
	}
	out := newEngine(ts, Config{}).pruneMostSpecific(hs)
	for i := range out {
		for j := range out {
			if i != j && out[i].D.Leq(&out[j].D) {
				t.Fatalf("survivors comparable: %d <= %d", i, j)
			}
		}
	}
}
