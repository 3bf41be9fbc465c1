package depfunc

import (
	"math/bits"
	"sync"
)

// Buffer arena for matrix backing stores. The generalization loop
// retires and re-creates hypothesis matrices at a rate proportional to
// messages × bound, all of the same handful of sizes, which made the
// allocator the hot path. Retired buffers instead go back to a
// size-classed freelist and come out again on the next Bottom/Clone.
//
// The freelist is a plain mutex-guarded stack per size class rather
// than a sync.Pool: Put on a sync.Pool boxes the []uint64 header into
// an interface, which costs one heap allocation per recycled buffer —
// exactly the traffic the arena exists to remove. The stacks also
// survive GC cycles, so a steady-state run reaches zero buffer
// allocations instead of periodically refilling a drained pool.
//
// Ownership rules (also documented on the DepFunc methods):
//
//   - every buffer carries its sharer count in word 0, maintained with
//     atomics. Buffers are shared only inside one engine, on one
//     goroutine, so no count is contended today; a plain counter
//     measured no faster, and the atomics keep a count sound should a
//     caller ever share matrices across goroutines;
//   - acquire hands out buffers with a count of 1;
//   - Release decrements and recycles at zero. Only release matrices
//     with no aliases outside the refcount (a matrix held by a dedup
//     map, a worklist, a snapshot or a returned result must never be
//     released — recycling a buffer that a live comparison still reads
//     would corrupt the comparison).
//
// Buffers are classed by the next power of two of their word count, so
// one class serves every matrix of a given task-set size and the pool
// never hands back a buffer that is too small.

const (
	// arenaMinClass keeps the smallest buffers (≤4 words) in one class.
	arenaMinClass = 2
	// arenaMaxClass caps pooled buffers at 2^16 words (~1180 tasks);
	// anything larger is allocator-managed.
	arenaMaxClass = 16
	// arenaCap bounds the buffers retained per class so one oversized
	// run cannot pin memory forever.
	arenaCap = 4096
)

type bufClass struct {
	mu   sync.Mutex
	free [][]uint64
}

var arena [arenaMaxClass + 1]bufClass

func arenaClass(n int) int {
	c := bits.Len(uint(n - 1))
	if c < arenaMinClass {
		c = arenaMinClass
	}
	return c
}

// acquire returns a buffer of exactly n words with the refcount word
// set to 1. When zero is true the lane words are cleared; otherwise
// the caller must overwrite all of them.
func acquire(n int, zero bool) []uint64 {
	c := arenaClass(n)
	if c > arenaMaxClass {
		b := make([]uint64, n)
		b[0] = 1
		return b
	}
	cl := &arena[c]
	cl.mu.Lock()
	var b []uint64
	if k := len(cl.free); k > 0 {
		b = cl.free[k-1]
		cl.free[k-1] = nil
		cl.free = cl.free[:k-1]
	}
	cl.mu.Unlock()
	if b == nil {
		b = make([]uint64, 1<<c)[:n]
		b[0] = 1
		return b
	}
	b = b[:n]
	if zero {
		clear(b)
	}
	b[0] = 1
	return b
}

// releaseBuf recycles a buffer whose refcount reached zero.
func releaseBuf(b []uint64) {
	c := arenaClass(len(b))
	if c > arenaMaxClass {
		return
	}
	cl := &arena[c]
	cl.mu.Lock()
	if len(cl.free) < arenaCap {
		cl.free = append(cl.free, b)
	}
	cl.mu.Unlock()
}
