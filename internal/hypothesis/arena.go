package hypothesis

import "github.com/blackbox-rt/modelgen/internal/depfunc"

// Arena is the single-goroutine allocator behind the generalization
// hot path. It hands out two kinds of objects:
//
//   - assumption cons cells, bump-allocated in blocks. Assumption
//     lists never outlive the period that created them
//     (ClearAssumptions runs on every survivor at period end), so the
//     engine resets its arena at the period boundary and the cells
//     are reused wholesale — no per-cell allocation, no per-cell GC
//     tracking;
//   - Hypothesis headers, recycled through a freelist. Generalization
//     creates and retires hypotheses at a rate of parents × candidate
//     pairs per message; Assume and Merge pop a header and Release
//     pushes it back, so the steady state allocates no headers at all.
//     Release guards the freelist against double pushes through the
//     embedded matrix's own released state.
//
// An Arena is not safe for concurrent use; each engine owns one. The
// nil Arena is valid and falls back to plain heap allocation.
type Arena struct {
	blocks   [][]assumeNode
	bi, used int
	free     []*Hypothesis
}

// arenaBlock is the cells-per-block granularity; blocks are retained
// across Reset, so steady state allocates nothing.
const arenaBlock = 1024

// node returns a cell initialized to {p, prev}.
func (a *Arena) node(p depfunc.Pair, prev *assumeNode) *assumeNode {
	if a == nil {
		return &assumeNode{p: p, prev: prev}
	}
	if a.bi == len(a.blocks) {
		a.blocks = append(a.blocks, make([]assumeNode, arenaBlock))
	}
	n := &a.blocks[a.bi][a.used]
	n.p, n.prev = p, prev
	a.used++
	if a.used == arenaBlock {
		a.bi++
		a.used = 0
	}
	return n
}

// header returns a zeroed Hypothesis header (Release zeroes what it
// recycles), recycled when the freelist has one.
func (a *Arena) header() *Hypothesis {
	if a == nil || len(a.free) == 0 {
		return new(Hypothesis)
	}
	k := len(a.free) - 1
	h := a.free[k]
	a.free[k] = nil
	a.free = a.free[:k]
	return h
}

// Reset recycles every cell and trims the header freelist to at most
// keep spare headers, so a period that once generated many children
// does not pin its high-water header count for the rest of the
// session. Only call it when no live hypothesis can still reference a
// cell from this arena — in the engine, immediately after the
// period-end ClearAssumptions sweep.
func (a *Arena) Reset(keep int) {
	if a == nil {
		return
	}
	a.bi, a.used = 0, 0
	if len(a.free) > keep {
		clear(a.free[keep:])
		a.free = a.free[:keep]
	}
}
