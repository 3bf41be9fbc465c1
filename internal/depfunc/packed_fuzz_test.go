package depfunc

import (
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// FuzzPackedDepFunc drives a packed matrix and its scalar Reference
// shadow through the same random operation sequence — Set, JoinAt,
// join-merge, meet, copy-on-write cloning, end-of-period relaxation —
// and demands bit-identical entries, fingerprints, weights and keys
// after every step (and, for relaxation, the same count and onRelax
// sequence). It is the
// fuzz arm of the packed-kernel differential tier: the property tests
// pin the word kernels, this target hunts for divergence in the
// incremental bookkeeping (fingerprint deltas, copy-on-write
// ownership, tail-lane invariants) under adversarial op interleavings.
func FuzzPackedDepFunc(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 4, 1, 2, 0, 3})
	f.Add([]byte{9, 1, 0, 1, 6, 2, 0, 0, 0, 3, 4, 5, 4, 0, 0, 5, 1, 1})
	f.Add([]byte{11, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5})
	f.Add([]byte{5})
	// 9 tasks: two → entries, one ← entry, then a relaxation with
	// tasks 0, 3 and 8 executed, which relaxes entries in the first
	// and the last word.
	f.Add([]byte{7, 7, 0, 1, 7, 8, 2, 14, 3, 0, 6, 0x01, 0x09})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		// Task-set sizes 2..12 cover matrices from a fraction of one
		// word (4 lanes) to several words (144 lanes), so every op can
		// land mid-word, at a word boundary or in the partial tail.
		n := 2 + int(ops[0])%11
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		ts, err := NewTaskSet(names)
		if err != nil {
			t.Fatal(err)
		}
		d, r := Bottom(ts), NewReference(ts)
		d2, r2 := Top(ts), refTop(ts)

		check := func(step int, op string) {
			t.Helper()
			if err := r.Matches(d); err != nil {
				t.Fatalf("step %d (%s): primary diverged: %v", step, op, err)
			}
			if err := r2.Matches(d2); err != nil {
				t.Fatalf("step %d (%s): secondary diverged: %v", step, op, err)
			}
		}

		ops = ops[1:]
		for step := 0; len(ops) >= 3; step++ {
			op, a, b := ops[0], ops[1], ops[2]
			ops = ops[3:]
			i, j := int(a)%n, int(b)%n
			v := lattice.Value(int(op/7) % 7)
			switch op % 7 {
			case 0:
				if i == j {
					continue
				}
				d.Set(i, j, v)
				r.Set(i, j, v)
				check(step, "set")
			case 1:
				if i == j {
					continue
				}
				d.JoinAt(i, j, v)
				r.JoinAt(i, j, v)
				check(step, "joinat")
			case 2:
				before := d.Clone()
				changed := d.JoinWith(d2)
				r.JoinWith(r2)
				check(step, "joinwith")
				if changed == d.Equal(before) {
					t.Fatalf("step %d: JoinWith reported changed=%v, equal to before=%v", step, changed, d.Equal(before))
				}
				before.Release()
			case 3:
				m := d.Meet(d2)
				d.Release()
				d = m
				r.MeetWith(r2)
				check(step, "meet")
			case 4:
				// Copy-on-write alias: later mutations of either side
				// must materialize a private copy without corrupting
				// the other.
				d2.Release()
				d2 = d.CloneShared()
				r2 = r.Clone()
				check(step, "cloneshared")
			case 5:
				d2.Release()
				r2 = NewReference(ts)
				if (a+b)%2 == 0 {
					d2 = Top(ts)
					r2 = refTop(ts)
				} else {
					d2 = Bottom(ts)
				}
				check(step, "reset")
			case 6:
				// a and b are the executed-task bits of tasks 8..15
				// and 0..7.
				ex := uint(a)<<8 | uint(b)
				executed := func(task int) bool { return ex>>task&1 == 1 }
				var got, want []relaxStep
				gotN := d.RelaxMasked(Violations(ts, executed, nil), recordRelax(&got))
				wantN := r.RelaxViolations(executed, recordRelax(&want))
				if gotN != wantN || !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: relaxed %d %v, reference %d %v", step, gotN, got, wantN, want)
				}
				check(step, "relax")
			}
		}
		if err := r.Matches(d); err != nil {
			t.Fatalf("final: %v", err)
		}
	})
}

// refTop builds the scalar shadow of Top.
func refTop(ts *TaskSet) *Reference {
	r := NewReference(ts)
	n := ts.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				r.Set(i, j, lattice.Top)
			}
		}
	}
	return r
}
