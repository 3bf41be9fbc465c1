package depfunc

import (
	"math/bits"

	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// ViolationMask is one period's packed relaxation mask: the lane of
// entry (a, b) is set iff task a executed and task b did not, i.e.
// the entries whose unconditional execution constraint the period
// would violate. The engine builds it once per period and applies it
// to every hypothesis a word at a time (RelaxMasked).
type ViolationMask []uint64

// Violations returns the violation mask of the executed-task set over
// ts, reusing dst's storage when it is large enough.
func Violations(ts *TaskSet, executed func(task int) bool, dst ViolationMask) ViolationMask {
	n := ts.Len()
	m := dst
	if nw := words(n); cap(m) < nw {
		m = make(ViolationMask, nw)
	} else {
		m = m[:nw]
		clear(m)
	}
	for a := 0; a < n; a++ {
		if !executed(a) {
			continue
		}
		for b := 0; b < n; b++ {
			if b != a && !executed(b) {
				idx := a*n + b
				m[idx/lattice.PackedLanes] |= laneMask << (uint(idx%lattice.PackedLanes) * lattice.PackedBits)
			}
		}
	}
	return m
}

// RelaxViolations generalizes, in place and minimally, every entry
// whose unconditional execution constraint is violated by the given
// set of executed tasks: if d(a,b) ∈ {→, ←, ↔} and a executed while b
// did not, the entry is relaxed to its conditional counterpart. This
// is the end-of-period "test conditional dependencies" step of the
// algorithm. It returns the number of relaxed entries.
func (d *DepFunc) RelaxViolations(executed func(task int) bool) int {
	return d.RelaxMasked(Violations(d.ts, executed, nil), nil)
}

// Relaxes reports whether RelaxMasked(m) would relax an entry of d,
// without changing d: whether d holds an unconditional entry the
// period behind m violates.
func (d *DepFunc) Relaxes(m ViolationMask) bool {
	for k, mw := range m {
		if lattice.RelaxWords(d.w[1+k], mw) != 0 {
			return true
		}
	}
	return false
}

// RelaxMasked is RelaxViolations with a prebuilt mask m (from
// Violations over d's task set) and an audit callback: onRelax (when
// non-nil) is invoked for every relaxed entry with its position and
// the old→new lattice transition, in row-major order. The provenance
// recorder uses it to attribute end-of-period relaxations. Each word
// is relaxed by one lattice.RelaxWords; a shared buffer is duplicated
// only once the first entry changes.
func (d *DepFunc) RelaxMasked(m ViolationMask, onRelax func(i, j int, old, new lattice.Value)) int {
	relaxed := 0
	owned := false
	for k, mw := range m {
		old := d.w[1+k]
		add := lattice.RelaxWords(old, mw)
		if add == 0 {
			continue
		}
		if !owned {
			d.ensureOwned()
			owned = true
		}
		nw := old | add
		base := k * lattice.PackedLanes
		d.fp ^= laneDiffHash(base, old, nw)
		d.w[1+k] = nw
		relaxed += bits.OnesCount64(add)
		if onRelax != nil {
			n := d.ts.Len()
			// The added bits are lane Q bits, lowest lane first:
			// row-major order.
			for a := add; a != 0; a &= a - 1 {
				sh := uint(bits.TrailingZeros64(a)) - 2
				idx := base + int(sh)/lattice.PackedBits
				onRelax(idx/n, idx%n, lattice.UnpackValue(old>>sh&laneMask), lattice.UnpackValue(nw>>sh&laneMask))
			}
		}
	}
	return relaxed
}
