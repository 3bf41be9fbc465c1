package hypothesis

import (
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// TestArenaHeaderFreelist: released headers come back zeroed, TopUp
// moves spares between arenas without exceeding its target, and
// Reset trims the freelist without keeping the dropped headers
// reachable through the slice's spare capacity.
func TestArenaHeaderFreelist(t *testing.T) {
	var main Arena
	ctx := StepCtx{Arena: &main}
	base := Bottom(ts3())
	kids := make([]*Hypothesis, 5)
	for i := range kids {
		kids[i] = base.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, ctx)
	}
	for _, k := range kids {
		k.Release(&main)
		k.Release(&main) // a double release must not push twice
	}
	if len(main.free) != 5 {
		t.Fatalf("freelist holds %d headers after 5 releases, want 5", len(main.free))
	}

	var chunk Arena
	chunk.TopUp(&main, 3)
	chunk.TopUp(&main, 3)
	if len(chunk.free) != 3 || len(main.free) != 2 {
		t.Fatalf("after TopUp to 3: chunk %d, main %d spare headers; want 3 and 2", len(chunk.free), len(main.free))
	}
	chunk.TopUp(&main, 10)
	if len(chunk.free) != 5 || len(main.free) != 0 {
		t.Fatalf("TopUp past the source: chunk %d, main %d spare headers; want 5 and 0", len(chunk.free), len(main.free))
	}

	h := chunk.header()
	if h.asm != nil || h.D.TaskSet() != nil || h.weight != 0 || h.dnext != nil {
		t.Fatal("recycled header is not zeroed")
	}
	chunk.Reset(1)
	if len(chunk.free) != 1 {
		t.Fatalf("Reset(1) kept %d spare headers", len(chunk.free))
	}
	for i, p := range chunk.free[1:cap(chunk.free)] {
		if p != nil {
			t.Fatalf("trimmed header %d still referenced by the freelist's backing array", i+1)
		}
	}
}
