package engine

import (
	"fmt"

	"github.com/blackbox-rt/modelgen/internal/hypothesis"
)

// workList is the engine's working collection of hypotheses for one
// message. Without a bound it simply collects the gathered children.
// With a positive bound it is an ascending-weight priority queue, and
// every addition that overflows the bound merges the two lightest
// elements into their least upper bound (Section 3.2); ties go first
// in, first out.
//
// The bounded queue is a bucket queue: one FIFO per integer weight,
// indexed from base, the weight of the message's lightest parent. No
// child or merge can weigh less (Assume and Merge only join upward),
// so every weight maps to a bucket, and push, pop-lightest and the
// final ascending drain are O(1) per element instead of the O(b)
// shifting of a sorted slice. The bucket array grows to the span of
// weights a run actually visits and is reused message after message
// by the engine that owns the list.
type workList struct {
	bound int
	stats *Stats
	ctx   hypothesis.StepCtx

	// items collects the unbounded (exact) mode's children.
	items []*hypothesis.Hypothesis

	// Bounded mode: buckets[w-base] holds the queued hypotheses of
	// weight w in arrival order; the non-empty buckets lie within
	// [lo, hi], and n counts the queued hypotheses.
	base    int
	buckets []fifo
	lo, hi  int
	n       int

	// retired collects the operands folded away by merges. They stay
	// alive until the message's dedup set makes its last equality
	// check (the set may reference them), then releaseRetired recycles
	// them.
	retired []*hypothesis.Hypothesis
}

// fifo is one weight bucket: a queue over a reusable slice whose
// popped prefix is items[:head].
type fifo struct {
	items []*hypothesis.Hypothesis
	head  int
}

func (q *fifo) empty() bool { return q.head == len(q.items) }

func (q *fifo) push(h *hypothesis.Hypothesis) {
	if q.head > 0 && len(q.items) == cap(q.items) {
		// Slide the live suffix down instead of growing.
		k := copy(q.items, q.items[q.head:])
		clear(q.items[k:])
		q.items, q.head = q.items[:k], 0
	}
	q.items = append(q.items, h)
}

func (q *fifo) pop() *hypothesis.Hypothesis {
	h := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.empty() {
		q.items, q.head = q.items[:0], 0
	}
	return h
}

// begin readies the list for one message whose lightest parent weighs
// base.
func (wl *workList) begin(base int, ctx hypothesis.StepCtx) {
	wl.ctx = ctx
	wl.base = base
	wl.lo, wl.hi = len(wl.buckets), -1
	wl.n = 0
}

func (wl *workList) add(h *hypothesis.Hypothesis) {
	if wl.bound <= 0 {
		wl.items = append(wl.items, h)
		return
	}
	wl.push(h)
	for wl.n > wl.bound {
		a := wl.pop()
		b := wl.pop()
		merged := a.Merge(b, wl.ctx)
		wl.retired = append(wl.retired, a, b)
		wl.stats.Merges++
		wl.push(merged)
	}
}

// push queues h behind every queued hypothesis of equal or lower
// weight.
func (wl *workList) push(h *hypothesis.Hypothesis) {
	i := h.Weight() - wl.base
	if i < 0 {
		panic(fmt.Sprintf("engine: worklist weight %d below the lightest parent's %d", h.Weight(), wl.base))
	}
	if i >= len(wl.buckets) {
		wl.buckets = append(wl.buckets, make([]fifo, i+1-len(wl.buckets))...)
	}
	wl.buckets[i].push(h)
	wl.lo, wl.hi = min(wl.lo, i), max(wl.hi, i)
	wl.n++
}

// pop removes the lightest, earliest-queued hypothesis. The list must
// not be empty.
func (wl *workList) pop() *hypothesis.Hypothesis {
	for wl.buckets[wl.lo].empty() {
		wl.lo++
	}
	wl.n--
	return wl.buckets[wl.lo].pop()
}

// take hands over the message's result and leaves the list empty for
// the next message: the exact mode's children in gather order, the
// bounded mode's queue in ascending weight (first in, first out
// within a weight). The returned slice is the caller's.
func (wl *workList) take() []*hypothesis.Hypothesis {
	if wl.bound <= 0 {
		out := wl.items
		wl.items = nil
		return out
	}
	out := make([]*hypothesis.Hypothesis, 0, wl.n)
	for i := wl.lo; i <= wl.hi; i++ {
		q := &wl.buckets[i]
		for !q.empty() {
			out = append(out, q.pop())
		}
	}
	wl.n = 0
	return out
}

// releaseRetired recycles every merged-away operand into the list's
// arena. Only call it once no dedup set that might reference them can
// make another equality check.
func (wl *workList) releaseRetired() {
	for i, h := range wl.retired {
		h.Release(wl.ctx.Arena)
		wl.retired[i] = nil
	}
	wl.retired = wl.retired[:0]
}
