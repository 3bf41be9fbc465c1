package lattice

import "math/bits"

// Packed representation of the seven-value lattice: 3 bits per entry,
// PackedLanes entries per uint64 word, chosen so that the lattice
// operations on a whole word of entries are a handful of bitwise
// instructions instead of PackedLanes table lookups (SWAR —
// SIMD-within-a-register).
//
// Each value is encoded as a 3-bit characteristic code over the
// "dependency components" of the value:
//
//	bit 0 (F)  the value admits a forward dependency  (→ component)
//	bit 1 (B)  the value admits a backward dependency (← component)
//	bit 2 (Q)  the dependency is conditional          (? component)
//
//	‖    000    →    001    ←    010    ↔    011
//	→?   101    ←?   110    ↔?   111
//
// Code 100 (conditional with neither component) encodes no lattice
// value and never arises from the kernels below. The encoding is
// chosen so that
//
//   - Join is bitwise OR: v1 ⊔ v2 admits a component iff either
//     operand does, and is conditional iff either operand is. That
//     this matches the Hasse diagram exhaustively is pinned by the
//     packed property tests and re-derived from the covering relation
//     at init time below.
//   - Meet is bitwise AND followed by one correction: the Q bit is
//     cleared in lanes where no component survived (→? ⊓ ←? is ‖,
//     not the unused 100).
//   - The partial order is the subset order on codes: a ⊑ b iff
//     a|b == b, lane-wise.
//   - Level is the population count of the code, and the Definition-7
//     distance is Level², which makes the Definition-8 weight of a
//     whole word computable from three popcounts.
//
// The ordinal Value constants (Par..BiMaybe) remain the public
// representation; PackValue/UnpackValue convert at the boundary. The
// two happen to agree for 0..3, and codes 5..7 are the ordinal plus
// one, so both directions are a shift and an add — no table.
const (
	// PackedBits is the width of one packed lane.
	PackedBits = 3
	// PackedLanes is the number of lattice values per uint64 word.
	PackedLanes = 64 / PackedBits // 21 (the top bit of each word is unused)
	// laneMask selects one lane.
	laneMask = (1 << PackedBits) - 1
)

// packedM0 has bit 0 of every lane set (the F plane); shifting it left
// by one or two selects the B or Q plane.
const packedM0 uint64 = 0x1249249249249249 // bits 0,3,6,...,60

// usedLaneBits masks the bits of a word that belong to some lane
// (everything except the unused top bit).
const usedLaneBits uint64 = packedM0 | packedM0<<1 | packedM0<<2

// PackValue returns the 3-bit packed code of v. It does not validate;
// callers pass lattice values.
func PackValue(v Value) uint64 {
	return uint64(v) + uint64(v)>>2
}

// UnpackValue returns the lattice value of a packed code. The unused
// code 100 must not be passed (ValidPackedWord rejects it at decode
// boundaries).
func UnpackValue(code uint64) Value {
	return Value(code - code>>2)
}

// PackedWords returns the number of uint64 words needed for n packed
// entries.
func PackedWords(n int) int { return (n + PackedLanes - 1) / PackedLanes }

// JoinWords returns the lane-wise least upper bound of two packed
// words: in this encoding the lattice join is exactly bitwise OR.
func JoinWords(a, b uint64) uint64 { return a | b }

// MeetWords returns the lane-wise greatest lower bound of two packed
// words: bitwise AND, then the Q bit is cleared in every lane whose F
// and B components both vanished (the →? ⊓ ←? = ‖ correction — the
// lattice is not distributive, so pure AND is off by exactly this
// case).
func MeetWords(a, b uint64) uint64 {
	r := a & b
	fb := (r | r>>1) & packedM0         // lane bit 0 set iff F or B survived
	return r &^ ((packedM0 &^ fb) << 2) // clear Q where neither did
}

// LeqWords reports whether every lane of a is ⊑ the corresponding
// lane of b: the packed order is the subset order on codes.
func LeqWords(a, b uint64) bool { return a|b == b }

// RelaxWords returns the bits that the end-of-period relaxation adds
// to w in the lanes selected by mask: the Q bit of every selected lane
// holding an unconditional value (→ 001, ← 010, ↔ 011 — F or B set, Q
// clear). w|RelaxWords(w, mask) is the relaxed word; lanes outside
// mask and lanes without an execution constraint (‖ and the
// conditional values) are left alone. mask selects a lane through its
// Q bit, so a mask built from whole-lane masks works as is.
func RelaxWords(w, mask uint64) uint64 {
	return ((w | w>>1) & packedM0) << 2 & mask &^ w
}

// WeightWord returns the summed Definition-7 distance of every lane of
// w: Σ Level(lane)² where Level is the lane popcount. Using
// Level² = Level + 2·(pairs of set bits), the whole word reduces to
// four popcounts.
func WeightWord(w uint64) int {
	f := w & packedM0
	b := (w >> 1) & packedM0
	q := (w >> 2) & packedM0
	pairs := bits.OnesCount64(f&b) + bits.OnesCount64(f&q) + bits.OnesCount64(b&q)
	return bits.OnesCount64(w) + 2*pairs
}

// ValidPackedWord reports whether w is a well-formed packed word with
// the given number of occupied lanes: the unused top bit and all lanes
// past used are zero, and no occupied lane holds the non-value code
// 100. Decoders call it before trusting foreign bytes.
func ValidPackedWord(w uint64, used int) bool {
	if used < PackedLanes {
		if w>>(used*PackedBits) != 0 {
			return false
		}
	} else if w&^usedLaneBits != 0 {
		return false
	}
	// A lane is invalid iff its code is exactly 100: Q set, F and B
	// clear.
	q := (w >> 2) & packedM0
	fb := (w | w>>1) & packedM0
	return q&^fb == 0
}

func init() {
	// The SWAR kernels above hard-code the characteristic encoding;
	// re-derive their agreement with the table-driven operations (which
	// come from the covering relation) so a mistake in either cannot
	// survive package initialization.
	for a := Value(0); a < numValues; a++ {
		if UnpackValue(PackValue(a)) != a {
			panic("lattice: packed encoding is not injective")
		}
		for b := Value(0); b < numValues; b++ {
			pa, pb := PackValue(a), PackValue(b)
			if UnpackValue(JoinWords(pa, pb)&laneMask) != joinTable[a][b] {
				panic("lattice: packed join disagrees with the lattice join")
			}
			if UnpackValue(MeetWords(pa, pb)&laneMask) != meetTable[a][b] {
				panic("lattice: packed meet disagrees with the lattice meet")
			}
			if LeqWords(pa, pb) != leqTable[a][b] {
				panic("lattice: packed order disagrees with the lattice order")
			}
		}
		pa := PackValue(a)
		if UnpackValue(pa|RelaxWords(pa, laneMask)) != Relax(a) ||
			RelaxWords(pa, 0) != 0 {
			panic("lattice: packed relax disagrees with Relax")
		}
		if WeightWord(pa) != Distance(a) {
			panic("lattice: packed weight disagrees with Distance")
		}
	}
}
