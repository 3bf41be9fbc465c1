package hypothesis

import (
	"fmt"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// BenchmarkMergePath times the engine's merge hot path end to end:
// assumption-intersection walk, copy-on-write matrix share, the
// word-parallel join, and release back into the arena's header
// freelist and the word arena. The join's copy-on-write
// materialization (the shared parent matrix must be copied before
// other's entries are OR-ed in) draws a recycled buffer, so steady
// state is alloc-free; TestMergeAllocs pins the no-change path.
func BenchmarkMergePath(b *testing.B) {
	for _, n := range []int{6, 12} {
		b.Run(fmt.Sprintf("tasks=%d", n), func(b *testing.B) {
			names := make([]string, n)
			for i := range names {
				names[i] = fmt.Sprintf("t%02d", i)
			}
			ts := depfunc.MustTaskSet(names...)
			var ar Arena
			ctx := StepCtx{Arena: &ar}
			// Two hypotheses with a shared assumption prefix and one
			// private assumption each — the shape every pairwise merge
			// in the generalization step sees.
			h1 := Bottom(ts).
				Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, ctx).
				Assume(depfunc.Pair{S: 2, R: 3}, lattice.FwdMaybe, lattice.BwdMaybe, ctx)
			h2 := Bottom(ts).
				Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, ctx).
				Assume(depfunc.Pair{S: 4, R: 5}, lattice.Bwd, lattice.Fwd, ctx)
			mark := ar
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := h1.Merge(h2, ctx)
				m.Release(&ar)
				// Roll the arena back to the pre-merge mark instead of
				// Reset: h1/h2's own cells live in the same arena and
				// must survive the iteration.
				ar.bi, ar.used = mark.bi, mark.used
			}
		})
	}
}
