package depfunc

import "github.com/blackbox-rt/modelgen/internal/lattice"

// The learner deduplicates and unifies hypotheses constantly: every
// message of every period compares freshly spawned children against
// the working set, and the end-of-period pass unifies equal dependency
// functions. The original implementation built a canonical string
// (Key) for each comparison — an O(t²) allocation per child on the
// hottest path of the O(m·b² + m·b·t²) heuristic. The engine instead
// maintains a 64-bit fingerprint incrementally: every entry mutation
// XORs out the old entry's hash and XORs in the new one, so reading the
// fingerprint is O(1) and allocation-free. The single-entry paths (Set,
// JoinAt) go through setIdx or update the one lane in place; the
// word-parallel paths (JoinWith, Meet, and RelaxMasked, which
// RelaxViolations wraps) XOR in laneDiffHash of each word they change,
// which visits only the lanes that differ.
//
// The fingerprint is a Zobrist hash: each (entry index, lattice value)
// combination contributes a fixed pseudo-random 64-bit token, and the
// fingerprint of a matrix is the XOR of the tokens of all its entries.
// XOR makes the scheme order-independent and self-inverse, which is
// exactly what incremental maintenance needs. Tokens come from the
// SplitMix64 finalizer instead of a lookup table, so no per-task-set
// state is required.
//
// Equal fingerprints do not *prove* equal matrices (64-bit collisions
// exist in principle), so every deduplication site confirms a
// fingerprint hit with a full Equal/SameState comparison before
// unifying. Unequal fingerprints do prove unequal matrices, which is
// the common case and the one worth making O(1).

// mix64 is the SplitMix64 finalizer, a cheap bijective mixer with
// good avalanche behaviour (Steele et al., "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014).
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// entryHash is the Zobrist token of holding lattice value v at flat
// matrix index idx. The seven lattice values (shifted to 1..7) fit in
// 3 bits, so (idx, v) packs injectively into the mixer input.
func entryHash(idx int, v lattice.Value) uint64 {
	return mix64(uint64(idx)<<3 | (uint64(v) + 1))
}

// Fingerprint returns the 64-bit Zobrist fingerprint of the matrix,
// maintained incrementally by every mutation. Two functions over the
// same task set with different fingerprints are guaranteed unequal;
// equal fingerprints must be confirmed with Equal before treating the
// functions as identical.
func (d *DepFunc) Fingerprint() uint64 { return d.fp }

// freshFingerprint recomputes the fingerprint from scratch; Bottom
// uses it to establish the invariant and tests use it to check that
// incremental maintenance never drifts. The hash is defined over the
// ordinal lattice values, independent of the packed storage encoding,
// so matrices with equal entries fingerprint identically no matter
// which kernel produced them.
func freshFingerprint(v []lattice.Value) uint64 {
	var fp uint64
	for idx, val := range v {
		fp ^= entryHash(idx, val)
	}
	return fp
}

// freshFingerprint is the method form over the packed representation.
func (d *DepFunc) freshFingerprint() uint64 {
	var fp uint64
	n2 := d.ts.Len() * d.ts.Len()
	for idx := 0; idx < n2; idx++ {
		fp ^= entryHash(idx, lattice.UnpackValue(d.codeAt(idx)))
	}
	return fp
}

// Fingerprint returns the Zobrist token of the ordered pair, used by
// the hypothesis layer to fingerprint assumption sets the same way
// matrix entries are fingerprinted (XOR of per-pair tokens).
func (p Pair) Fingerprint() uint64 {
	return mix64(uint64(uint32(p.S))<<32 | uint64(uint32(p.R)))
}
