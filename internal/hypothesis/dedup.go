package hypothesis

// Dedup is a fingerprint-keyed hypothesis set with full-equality
// confirmation on a fingerprint hit. It is an open-addressing table
// with linear probing: one slot per distinct fingerprint, and
// hypotheses whose fingerprints collide chain through their own dnext
// field, so inserting never allocates per entry.
//
// Reset is O(1): every slot carries the generation that wrote it and
// Reset bumps the current generation, which turns every older slot
// into an empty one. Only when the generation counter wraps does Reset
// clear the slots, so a stale slot can never resurface. The table is
// allocated on the first Insert (the zero Dedup is ready to use) and
// grows by doubling; a Dedup reused across messages therefore reaches
// zero steady-state allocations.
//
// Only one live Dedup may traverse a hypothesis's chain link at a
// time; Insert always rewrites the link, so reusing one Dedup
// serially (Reset between uses) is safe even though released and
// recycled headers leave stale links behind.
type Dedup struct {
	slots []dedupSlot
	gen   uint32
	n     int // occupied slots of the current generation
	shift uint
}

// dedupSlot is one table slot; it is empty unless gen is the table's
// current generation.
type dedupSlot struct {
	fp  uint64
	h   *Hypothesis // chain head, linked through dnext
	gen uint32
}

// dedupMinBits sizes the first table at 2^dedupMinBits slots.
const dedupMinBits = 6

// Reset empties the set in O(1), retaining the table's storage.
func (d *Dedup) Reset() {
	d.n = 0
	d.gen++
	if d.gen == 0 {
		// Wrapped: slots written a full cycle ago would read as
		// current again, so wipe them once.
		clear(d.slots)
		d.gen = 1
	}
}

// Clear empties the set like Reset and also drops the hypothesis
// references that slots of older generations still hold, in
// O(capacity). Reset alone leaves those references in place, so a
// long-lived Dedup should be cleared whenever the hypotheses it last
// saw may have become garbage (the engine does it at every period
// boundary), or it would keep them reachable.
func (d *Dedup) Clear() {
	clear(d.slots)
	d.gen, d.n = 1, 0
}

// Insert reports whether a hypothesis with the same state (dependency
// function plus assumption set) was already present, inserting h
// otherwise.
func (d *Dedup) Insert(h *Hypothesis) bool {
	if d.slots == nil {
		d.alloc(dedupMinBits)
	}
	fp := h.Fingerprint()
	s := d.find(fp)
	if s.gen == d.gen {
		for c := s.h; c != nil; c = c.dnext {
			if c.SameState(h) {
				return true
			}
		}
		h.dnext = s.h
		s.h = h
		return false
	}
	// At most half full keeps linear-probe runs short.
	if 2*(d.n+1) > len(d.slots) {
		d.grow()
		s = d.find(fp)
	}
	h.dnext = nil
	*s = dedupSlot{fp: fp, h: h, gen: d.gen}
	d.n++
	return false
}

// find returns the slot holding fp in the current generation, or the
// empty slot where it would go.
func (d *Dedup) find(fp uint64) *dedupSlot {
	mask := len(d.slots) - 1
	// Fibonacci hashing spreads the fingerprint's high bits over the
	// index; the table size is a power of two.
	for i := int((fp * 0x9e3779b97f4a7c15) >> d.shift); ; i = (i + 1) & mask {
		s := &d.slots[i]
		if s.gen != d.gen || s.fp == fp {
			return s
		}
	}
}

// alloc installs a fresh, empty table of 2^bits slots.
func (d *Dedup) alloc(bits uint) {
	d.slots = make([]dedupSlot, 1<<bits)
	d.shift = 64 - bits
	d.gen = 1
	d.n = 0
}

// grow doubles the table, re-homing the current generation's slots
// (their chains move with them untouched).
func (d *Dedup) grow() {
	old, gen := d.slots, d.gen
	d.alloc(64 - d.shift + 1)
	for i := range old {
		if old[i].gen == gen {
			s := d.find(old[i].fp)
			*s = dedupSlot{fp: old[i].fp, h: old[i].h, gen: d.gen}
			d.n++
		}
	}
}
