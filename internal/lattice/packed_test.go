package lattice

import (
	"math/bits"
	"math/rand"
	"testing"
)

// packSlice packs a value slice into words, lane i of word i/PackedLanes
// holding vs[i]; tail lanes stay zero (the Par encoding), matching the
// invariant depfunc maintains for its matrices.
func packSlice(vs []Value) []uint64 {
	w := make([]uint64, PackedWords(len(vs)))
	for i, v := range vs {
		w[i/PackedLanes] |= PackValue(v) << (uint(i%PackedLanes) * PackedBits)
	}
	return w
}

func laneOf(w []uint64, i int) Value {
	return UnpackValue((w[i/PackedLanes] >> (uint(i%PackedLanes) * PackedBits)) & laneMask)
}

// randomWord returns a word whose first used lanes hold independent
// random lattice values and whose remaining lanes are zero.
func randomWord(rng *rand.Rand, used int) uint64 {
	var w uint64
	for i := 0; i < used; i++ {
		w |= PackValue(Value(rng.Intn(int(numValues)))) << (uint(i) * PackedBits)
	}
	return w
}

// TestPackedAllPairsEveryLane exercises every (a, b) of the 7×7 value
// pairs in every one of the 21 lane positions, with the surrounding
// lanes holding a deterministic non-uniform background, and checks
// join, meet and order against the table-driven scalar operations —
// both in the lane under test and in every background lane (a kernel
// that leaks carries between lanes would corrupt a neighbour).
func TestPackedAllPairsEveryLane(t *testing.T) {
	for lane := 0; lane < PackedLanes; lane++ {
		for a := Value(0); a < numValues; a++ {
			for b := Value(0); b < numValues; b++ {
				va := make([]Value, PackedLanes)
				vb := make([]Value, PackedLanes)
				for i := range va {
					va[i] = Value((i + int(a)) % int(numValues))
					vb[i] = Value((i*3 + int(b)) % int(numValues))
				}
				va[lane], vb[lane] = a, b
				wa, wb := packSlice(va)[0], packSlice(vb)[0]

				join := JoinWords(wa, wb)
				meet := MeetWords(wa, wb)
				wantLeq := true
				for i := 0; i < PackedLanes; i++ {
					if got, want := laneOf([]uint64{join}, i), Join(va[i], vb[i]); got != want {
						t.Fatalf("lane %d (test lane %d, a=%s b=%s): join = %s, want %s",
							i, lane, a, b, got, want)
					}
					if got, want := laneOf([]uint64{meet}, i), Meet(va[i], vb[i]); got != want {
						t.Fatalf("lane %d (test lane %d, a=%s b=%s): meet = %s, want %s",
							i, lane, a, b, got, want)
					}
					wantLeq = wantLeq && Leq(va[i], vb[i])
				}
				if got := LeqWords(wa, wb); got != wantLeq {
					t.Fatalf("test lane %d, a=%s b=%s: LeqWords = %v, want %v", lane, a, b, got, wantLeq)
				}
			}
		}
	}
}

// TestPackedLatticeLaws checks the word-level kernels satisfy the
// lattice laws on randomized full words: commutativity, associativity,
// idempotence, absorption, and monotonicity of join with respect to
// the packed order.
func TestPackedLatticeLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 2000; trial++ {
		a := randomWord(rng, PackedLanes)
		b := randomWord(rng, PackedLanes)
		c := randomWord(rng, PackedLanes)
		if JoinWords(a, b) != JoinWords(b, a) {
			t.Fatalf("join not commutative: %x %x", a, b)
		}
		if MeetWords(a, b) != MeetWords(b, a) {
			t.Fatalf("meet not commutative: %x %x", a, b)
		}
		if JoinWords(JoinWords(a, b), c) != JoinWords(a, JoinWords(b, c)) {
			t.Fatalf("join not associative: %x %x %x", a, b, c)
		}
		if MeetWords(MeetWords(a, b), c) != MeetWords(a, MeetWords(b, c)) {
			t.Fatalf("meet not associative: %x %x %x", a, b, c)
		}
		if JoinWords(a, a) != a || MeetWords(a, a) != a {
			t.Fatalf("not idempotent: %x", a)
		}
		if JoinWords(a, MeetWords(a, b)) != a {
			t.Fatalf("absorption a∨(a∧b) failed: %x %x", a, b)
		}
		if MeetWords(a, JoinWords(a, b)) != a {
			t.Fatalf("absorption a∧(a∨b) failed: %x %x", a, b)
		}
		// a ⊑ a∨b, a∧b ⊑ a, and join monotonicity: a ⊑ b ⇒ a∨c ⊑ b∨c.
		if !LeqWords(a, JoinWords(a, b)) || !LeqWords(MeetWords(a, b), a) {
			t.Fatalf("order inconsistent with join/meet: %x %x", a, b)
		}
		ab := JoinWords(a, b) // a ⊑ ab by construction
		if !LeqWords(JoinWords(a, c), JoinWords(ab, c)) {
			t.Fatalf("join not monotone: %x %x %x", a, b, c)
		}
	}
}

// TestWeightWordMatchesDistanceSum pins WeightWord to the scalar
// Definition-7 distances on random words, including partially used
// ones.
func TestWeightWordMatchesDistanceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 2000; trial++ {
		used := 1 + rng.Intn(PackedLanes)
		w := randomWord(rng, used)
		want := 0
		for i := 0; i < used; i++ {
			want += Distance(laneOf([]uint64{w}, i))
		}
		if got := WeightWord(w); got != want {
			t.Fatalf("WeightWord(%x) = %d, want %d (used %d)", w, got, want, used)
		}
	}
}

// TestPackedCrossWordBoundaries packs value slices whose lengths
// straddle word boundaries (including lengths that are not a multiple
// of the word capacity) and checks multi-word join/meet/order against
// the scalar operations entry by entry.
func TestPackedCrossWordBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 20, 21, 22, 41, 42, 43, 63, 64, 100, 441} {
		va := make([]Value, n)
		vb := make([]Value, n)
		for i := range va {
			va[i] = Value(rng.Intn(int(numValues)))
			vb[i] = Value(rng.Intn(int(numValues)))
		}
		wa, wb := packSlice(va), packSlice(vb)
		wantLeq := true
		for i := 0; i < len(wa); i++ {
			used := n - i*PackedLanes
			if used > PackedLanes {
				used = PackedLanes
			}
			if !ValidPackedWord(wa[i], used) || !ValidPackedWord(wb[i], used) {
				t.Fatalf("n=%d word %d: packSlice produced an invalid word", n, i)
			}
			join := JoinWords(wa[i], wb[i])
			meet := MeetWords(wa[i], wb[i])
			if !ValidPackedWord(join, used) || !ValidPackedWord(meet, used) {
				t.Fatalf("n=%d word %d: kernel produced an invalid word", n, i)
			}
			for l := 0; l < used; l++ {
				idx := i*PackedLanes + l
				if got, want := laneOf([]uint64{join}, l), Join(va[idx], vb[idx]); got != want {
					t.Fatalf("n=%d entry %d: join = %s, want %s", n, idx, got, want)
				}
				if got, want := laneOf([]uint64{meet}, l), Meet(va[idx], vb[idx]); got != want {
					t.Fatalf("n=%d entry %d: meet = %s, want %s", n, idx, got, want)
				}
			}
			// Tail lanes are zero in both operands, so whole-word
			// LeqWords is exact even on the last, partial word.
			wantLeq = wantLeq && LeqWords(wa[i], wb[i])
		}
		scalarLeq := true
		for i := range va {
			scalarLeq = scalarLeq && Leq(va[i], vb[i])
		}
		if wantLeq != scalarLeq {
			t.Fatalf("n=%d: word-wise Leq %v, scalar %v", n, wantLeq, scalarLeq)
		}
	}
}

// TestValidPackedWord pins the decoder-side validation: the unused
// code 100, stray bits past the used lanes, and the spare top bit are
// all rejected; every real value in every lane is accepted.
func TestValidPackedWord(t *testing.T) {
	for lane := 0; lane < PackedLanes; lane++ {
		for v := Value(0); v < numValues; v++ {
			w := PackValue(v) << (uint(lane) * PackedBits)
			if !ValidPackedWord(w, PackedLanes) {
				t.Fatalf("valid word rejected: value %s in lane %d", v, lane)
			}
			if lane < PackedLanes-1 && v != Par && ValidPackedWord(w, lane) {
				t.Fatalf("word with occupied lane %d accepted with used=%d", lane, lane)
			}
		}
		// Code 100: Q set, F and B clear — not a value.
		bad := uint64(4) << (uint(lane) * PackedBits)
		if ValidPackedWord(bad, PackedLanes) {
			t.Fatalf("non-value code 100 accepted in lane %d", lane)
		}
	}
	if ValidPackedWord(1<<63, PackedLanes) {
		t.Fatal("spare top bit accepted")
	}
}

// TestRelaxWordsEveryLane exercises every value with its lane selected
// and unselected by the mask, in every one of the 21 lane positions,
// against the scalar Relax. The surrounding lanes hold a deterministic
// mix of values under three mask backgrounds (none, all, alternating)
// and are checked too, so a kernel whose shifts carry a bit into a
// neighbouring lane is caught; the added bits must be Q bits only.
func TestRelaxWordsEveryLane(t *testing.T) {
	backgrounds := []func(i int) bool{
		func(int) bool { return false },
		func(int) bool { return true },
		func(i int) bool { return i%2 == 0 },
	}
	for bgi, bg := range backgrounds {
		for lane := 0; lane < PackedLanes; lane++ {
			for v := Value(0); v < numValues; v++ {
				for _, on := range []bool{false, true} {
					vs := make([]Value, PackedLanes)
					sel := make([]bool, PackedLanes)
					var mask uint64
					for i := range vs {
						vs[i] = Value((i*5 + lane + int(v)) % int(numValues))
						sel[i] = bg(i)
					}
					vs[lane], sel[lane] = v, on
					for i, s := range sel {
						if s {
							mask |= laneMask << (uint(i) * PackedBits)
						}
					}
					w := packSlice(vs)[0]
					add := RelaxWords(w, mask)
					if add&^(packedM0<<2) != 0 {
						t.Fatalf("background %d lane %d v=%s on=%v: added non-Q bits %#x", bgi, lane, v, on, add)
					}
					got := w | add
					if !ValidPackedWord(got, PackedLanes) {
						t.Fatalf("background %d lane %d v=%s on=%v: invalid relaxed word %#x", bgi, lane, v, on, got)
					}
					changed := 0
					for i := 0; i < PackedLanes; i++ {
						want := vs[i]
						if sel[i] {
							want = Relax(vs[i])
						}
						if want != vs[i] {
							changed++
						}
						if g := laneOf([]uint64{got}, i); g != want {
							t.Fatalf("background %d lane %d (test lane %d, v=%s on=%v): relaxed to %s, want %s",
								bgi, i, lane, v, on, g, want)
						}
					}
					if n := bits.OnesCount64(add); n != changed {
						t.Fatalf("background %d lane %d v=%s on=%v: %d bits added for %d relaxed lanes", bgi, lane, v, on, n, changed)
					}
				}
			}
		}
	}
}

// TestRelaxWordsOnlySelectsQPlane: a mask that sets only the Q bit of
// a lane selects it exactly like a whole-lane mask, and F/B mask bits
// alone select nothing.
func TestRelaxWordsOnlySelectsQPlane(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 2000; trial++ {
		w := randomWord(rng, PackedLanes)
		m := rng.Uint64() & usedLaneBits
		full := ((m | m>>1 | m>>2) & packedM0) * laneMask
		q := full & (packedM0 << 2)
		if RelaxWords(w, full) != RelaxWords(w, q) {
			t.Fatalf("whole-lane and Q-only masks disagree: w=%#x mask=%#x", w, full)
		}
		if RelaxWords(w, full&^(packedM0<<2)) != 0 {
			t.Fatalf("F/B-only mask selected a lane: w=%#x mask=%#x", w, full)
		}
	}
}
