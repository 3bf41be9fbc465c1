package depfunc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// relaxStep is one onRelax callback.
type relaxStep struct {
	i, j     int
	old, new lattice.Value
}

func recordRelax(steps *[]relaxStep) func(i, j int, old, new lattice.Value) {
	return func(i, j int, old, new lattice.Value) {
		*steps = append(*steps, relaxStep{i, j, old, new})
	}
}

// TestRelaxMaskedMatchesReference shadows the word-parallel relaxation
// with the scalar reference on random matrices over 1..8 tasks (from
// part of one word to three, so relaxed entries land on both sides of
// the lane-21 word boundary) and random executed sets. Entries,
// fingerprint, weight, the relaxed count and the onRelax sequence must
// all agree. Half the matrices are copy-on-write aliases, whose other
// sharer must not change.
func TestRelaxMaskedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var mask ViolationMask
	crossed := false
	for n := 1; n <= 8; n++ {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("t%d", i)
		}
		ts := MustTaskSet(names...)
		for trial := 0; trial < 300; trial++ {
			d := Bottom(ts)
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j {
						d.Set(i, j, lattice.Value(rng.Intn(7)))
					}
				}
			}
			r, before := RefOf(d), RefOf(d)
			var alias *DepFunc
			if trial%2 == 0 {
				alias = d.CloneShared()
			}
			bits := rng.Uint32()
			executed := func(task int) bool { return bits>>task&1 == 1 }

			var got, want []relaxStep
			mask = Violations(ts, executed, mask)
			would := d.Relaxes(mask)
			gotN := d.RelaxMasked(mask, recordRelax(&got))
			if would != (gotN > 0) {
				t.Fatalf("n=%d trial %d: Relaxes = %v, RelaxMasked relaxed %d", n, trial, would, gotN)
			}
			wantN := r.RelaxViolations(executed, recordRelax(&want))
			if gotN != wantN {
				t.Fatalf("n=%d trial %d: relaxed %d entries, reference %d", n, trial, gotN, wantN)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d trial %d: onRelax sequence\n got %v\nwant %v", n, trial, got, want)
			}
			if err := r.Matches(d); err != nil {
				t.Fatalf("n=%d trial %d: %v", n, trial, err)
			}
			if alias != nil {
				if err := before.Matches(alias); err != nil {
					t.Fatalf("n=%d trial %d: relaxing one sharer changed the other: %v", n, trial, err)
				}
				alias.Release()
			}
			for _, s := range got {
				crossed = crossed || s.i*n+s.j >= lattice.PackedLanes
			}
			d.Release()
		}
	}
	if !crossed {
		t.Fatal("no relaxed entry beyond the first word; test premise broken")
	}
}

// TestViolationsReusesStorage: a mask rebuilt into a large enough
// buffer keeps it and clears the lanes of the previous period.
func TestViolationsReusesStorage(t *testing.T) {
	ts := MustTaskSet("a", "b", "c", "d", "e")
	all := Violations(ts, func(task int) bool { return task == 0 }, nil)
	none := Violations(ts, func(int) bool { return true }, all)
	if &none[0] != &all[0] {
		t.Error("mask storage was not reused")
	}
	for k, w := range none {
		if w != 0 {
			t.Errorf("word %d = %#x after an all-executed period, want 0", k, w)
		}
	}
}
