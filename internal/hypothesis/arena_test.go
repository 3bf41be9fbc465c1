package hypothesis

import (
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// TestArenaHeaderFreelist: released headers come back zeroed, and
// Reset trims the freelist without keeping the dropped headers
// reachable through the slice's spare capacity.
func TestArenaHeaderFreelist(t *testing.T) {
	var ar Arena
	ctx := StepCtx{Arena: &ar}
	base := Bottom(ts3())
	kids := make([]*Hypothesis, 5)
	for i := range kids {
		kids[i] = base.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, ctx)
	}
	for _, k := range kids {
		k.Release(&ar)
		k.Release(&ar) // a double release must not push twice
	}
	if len(ar.free) != 5 {
		t.Fatalf("freelist holds %d headers after 5 releases, want 5", len(ar.free))
	}

	h := ar.header()
	if h.asm != nil || h.D.TaskSet() != nil || h.weight != 0 || h.dnext != nil {
		t.Fatal("recycled header is not zeroed")
	}
	ar.Reset(1)
	if len(ar.free) != 1 {
		t.Fatalf("Reset(1) kept %d spare headers", len(ar.free))
	}
	for i, p := range ar.free[1:cap(ar.free)] {
		if p != nil {
			t.Fatalf("trimmed header %d still referenced by the freelist's backing array", i+1)
		}
	}
}
