package hypothesis

import (
	"math"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// distinctHypotheses returns n hypotheses over a 4-task set with
// pairwise different dependency functions: hypothesis i spells i in
// base 7 over the first off-diagonal entries.
func distinctHypotheses(n int) []*Hypothesis {
	ts := depfunc.MustTaskSet("a", "b", "c", "d")
	var entries [][2]int
	for i := 0; i < ts.Len(); i++ {
		for j := 0; j < ts.Len(); j++ {
			if i != j {
				entries = append(entries, [2]int{i, j})
			}
		}
	}
	out := make([]*Hypothesis, n)
	for k := range out {
		d := depfunc.Bottom(ts)
		for x, e := k, 0; x > 0; x, e = x/7, e+1 {
			d.Set(entries[e][0], entries[e][1], lattice.Value(x%7))
		}
		out[k] = FromDepFunc(d)
		d.Release()
	}
	return out
}

// TestDedupForcedCollision: two unequal states whose fingerprints are
// forced equal share a slot but stay distinct through the chain, and
// each still finds its own duplicate.
func TestDedupForcedCollision(t *testing.T) {
	hs := distinctHypotheses(3)
	a, b, c := hs[1], hs[2], hs[0]
	// afp is part of the fingerprint but not of SameState, so this
	// forges a collision without making the states equal.
	b.afp ^= a.Fingerprint() ^ b.Fingerprint()
	c.afp ^= a.Fingerprint() ^ c.Fingerprint()
	if a.Fingerprint() != b.Fingerprint() || a.Fingerprint() != c.Fingerprint() || a.SameState(b) {
		t.Fatal("test setup: collision not forged")
	}
	var d Dedup
	for _, h := range []*Hypothesis{a, b, c} {
		if d.Insert(h) {
			t.Fatalf("colliding but unequal state %s reported as a duplicate", h.D.Key())
		}
	}
	for _, h := range []*Hypothesis{a, b, c} {
		if !d.Insert(h.Clone()) {
			t.Fatalf("equal state %s not found behind the collision", h.D.Key())
		}
	}
	if d.n != 1 {
		t.Errorf("colliding states occupy %d slots, want 1", d.n)
	}
}

// TestDedupResetAcrossGenerationWrap: Reset empties the set every
// time, including when the generation counter wraps around and slots
// stamped a full cycle ago would otherwise read as current again.
func TestDedupResetAcrossGenerationWrap(t *testing.T) {
	hs := distinctHypotheses(8)
	var d Dedup
	for _, h := range hs {
		d.Insert(h)
	}
	stale := d.gen
	// Jump to the end of the cycle; the slots still carry stale.
	d.gen = math.MaxUint32 - 1
	d.Reset()
	d.Reset()
	if d.gen != stale {
		t.Fatalf("test setup: after the wrap the generation is %d, want the stale %d", d.gen, stale)
	}
	for i, h := range hs {
		if d.Insert(h) {
			t.Fatalf("hypothesis %d inserted a cycle ago resurfaced after the wrap", i)
		}
	}
	for round := 0; round < 3; round++ {
		d.Reset()
		for i, h := range hs {
			if d.Insert(h) {
				t.Fatalf("round %d: hypothesis %d present after Reset", round, i)
			}
			if !d.Insert(h) {
				t.Fatalf("round %d: hypothesis %d not found after Insert", round, i)
			}
		}
	}
}

// TestDedupGrowthKeepsEntries: growing the table many times over
// re-homes every entry, chains included.
func TestDedupGrowthKeepsEntries(t *testing.T) {
	hs := distinctHypotheses(2000)
	// Chain every tenth state behind its predecessor's fingerprint.
	for i := 10; i < len(hs); i += 10 {
		hs[i].afp ^= hs[i-1].Fingerprint() ^ hs[i].Fingerprint()
	}
	var d Dedup
	for i, h := range hs {
		if d.Insert(h) {
			t.Fatalf("distinct hypothesis %d reported as a duplicate", i)
		}
	}
	if len(d.slots) < 2*d.n {
		t.Fatalf("table of %d slots holds %d fingerprints", len(d.slots), d.n)
	}
	for i, h := range hs {
		if !d.Insert(h.Clone()) {
			t.Fatalf("hypothesis %d lost by growth", i)
		}
	}
}

// TestDedupSteadyStateAllocs: once the table has grown to the working
// size, Insert and Reset allocate nothing.
func TestDedupSteadyStateAllocs(t *testing.T) {
	hs := distinctHypotheses(500)
	var d Dedup
	fill := func() {
		for _, h := range hs {
			d.Insert(h)
		}
		d.Reset()
	}
	fill()
	if allocs := testing.AllocsPerRun(20, fill); allocs != 0 {
		t.Errorf("steady-state Insert+Reset allocates %v per run, want 0", allocs)
	}
}
