package engine

import (
	"slices"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
)

// This file is the period-shape memo, one of ProcessPeriod's two skip
// rules; the other, a single hypothesis the period saturates, needs no
// memory (engine.go's fixedPoint). A period either rule covers skips
// generalization and post-processing.
//
// The engine reads a period only through its shape: the candidate
// pairs of every message, in message order, and the set of executed
// tasks. The memo holds shapes that provably leave the engine's state
// unchanged. Two validity rules decide what goes in (THEORY.md §3b),
// after every period that was not a memo hit, whether it ran or the
// saturated rule skipped it:
//
//   - Exact mode (Bound <= 0). After period k the working set is the
//     ⊑-minimal set consistent with periods 1..k (Thm 3), and
//     consistency depends on the shape alone, so a shape learned once
//     is a fixed point from then on. Every successfully learned shape
//     goes in and the memo is never cleared.
//   - Bounded mode. A period's result is a deterministic function of
//     the ordered working set, the shape and the execution history.
//     A shape goes in only after a period that relaxed nothing and
//     left the working set and the history bit-identical; any other
//     period clears the memo, so every held shape maps the current
//     state to itself.
//
// The memo is a cache: New and Restore start it empty, and it stops
// taking shapes at memoCapWords.

// memoCapWords caps one engine's stored shape encodings, in 32-bit
// words (64 KiB). A lite case-study period encodes in a few dozen
// words, a full one in a few hundred, and a server holds one memo per
// stream, so the cap bounds what a stream of ever-new shapes can pin.
const memoCapWords = 1 << 14

// shapeMemo is a set of period shapes. Each shape is encoded into a
// flat word string: the executed-task bitset, then per message its
// candidate count followed by its pairs. The encodings sit back to
// back in words, each prefixed by its length, and a 64-bit hash of the
// encoding indexes them. A hash hit is confirmed by comparing the
// encodings word for word; a colliding shape is simply not stored.
type shapeMemo struct {
	at    map[uint64]int32 // encoding hash → offset of its length word in words
	words []uint32
	// key and hash are the shape of the period being processed, set
	// by lookup and consumed by insert.
	key  []uint32
	hash uint64
}

// lookup encodes the period's shape as the current key and reports
// whether the memo holds it.
func (m *shapeMemo) lookup(executed []bool, cands [][]depfunc.Pair) bool {
	k := m.key[:0]
	var w uint32
	for i, x := range executed {
		if x {
			w |= 1 << (i % 32)
		}
		if i%32 == 31 || i == len(executed)-1 {
			k = append(k, w)
			w = 0
		}
	}
	for _, pairs := range cands {
		k = append(k, uint32(len(pairs)))
		for _, p := range pairs {
			// A task set addresses n² matrix entries, so indices stay
			// far below 2^16 and the packing is injective.
			k = append(k, uint32(p.S)<<16|uint32(p.R))
		}
	}
	m.key = k
	h := uint64(len(k))
	for _, w := range k {
		h = (h ^ uint64(w)) * 0x9e3779b97f4a7c15
	}
	m.hash = h ^ h>>29
	off, ok := m.at[m.hash]
	if !ok {
		return false
	}
	n := int(m.words[off])
	return slices.Equal(m.words[off+1:int(off)+1+n], k)
}

// insert stores the current key, unless its hash is taken already or
// the memo is full.
func (m *shapeMemo) insert() {
	if _, ok := m.at[m.hash]; ok || len(m.words)+1+len(m.key) > memoCapWords {
		return
	}
	if m.at == nil {
		m.at = make(map[uint64]int32)
	}
	m.at[m.hash] = int32(len(m.words))
	m.words = append(m.words, uint32(len(m.key)))
	m.words = append(m.words, m.key...)
}

// reset empties the memo, keeping its storage.
func (m *shapeMemo) reset() {
	if len(m.words) == 0 {
		return
	}
	clear(m.at)
	m.words = m.words[:0]
}

// unchanged reports whether a period left the ordered working set as
// prev recorded it at period entry. It must only be asked after a
// period that relaxed nothing: relaxation is the one stage that edits
// a surviving hypothesis in place (a period without messages hands
// the entry set straight to it), so without it an entry that is still
// the same object is still the same function. Every other survivor is
// a new object and is compared by content.
func unchanged(prev, cur []*hypothesis.Hypothesis) bool {
	if len(prev) != len(cur) {
		return false
	}
	for i, h := range cur {
		if h != prev[i] && !h.D.Equal(&prev[i].D) {
			return false
		}
	}
	return true
}
