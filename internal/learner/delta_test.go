package learner

import (
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/engine"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// feedPeriods returns the Figure-2 periods repeated n times — enough
// periods for the session to converge and keep going.
func feedPeriods(n int) (tasks []string, periods []*trace.Period) {
	tr := trace.PaperFigure2()
	for i := 0; i < n; i++ {
		periods = append(periods, tr.Periods...)
	}
	return tr.Tasks, periods
}

// roundTrip pushes a delta through its JSON wire form, as the store
// WAL does.
func roundTrip(t *testing.T, d *Delta) *Delta {
	t.Helper()
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var out Delta
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestDeltaReplayEquivalence: capturing a delta after every period
// and applying the JSON round-tripped deltas to a twin session keeps
// the twin bit-identical to the original at every step, across option
// shapes (exact, bounded, retained-ring).
func TestDeltaReplayEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"exact", Options{}},
		{"bounded", Options{Bound: 8}},
		{"retained", Options{Bound: 8, RetainPeriods: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tasks, periods := feedPeriods(4)
			a, err := NewOnline(tasks, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewOnline(tasks, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range periods {
				if err := a.AddPeriod(p); err != nil {
					t.Fatal(err)
				}
				d, err := a.PeriodDelta()
				if err != nil {
					t.Fatalf("period %d: %v", i, err)
				}
				gen := b.Generation()
				if err := b.ApplyDelta(roundTrip(t, d)); err != nil {
					t.Fatalf("period %d: %v", i, err)
				}
				if b.Generation() == gen {
					t.Fatalf("period %d: ApplyDelta left the generation at %d", i, gen)
				}
				sa, err := a.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				sb, err := b.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(sa, sb) {
					t.Fatalf("period %d: replayed snapshot diverges\noriginal: %+v\nreplayed: %+v", i, sa, sb)
				}
			}
			ra, err := a.Result()
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.Result()
			if err != nil {
				t.Fatal(err)
			}
			if ra.LUB.Table() != rb.LUB.Table() {
				t.Fatalf("LUB diverges:\n%s\nvs\n%s", ra.LUB.Table(), rb.LUB.Table())
			}
		})
	}
}

// TestDeltaAcrossRestore: a session restored from a mid-stream
// snapshot catches up via deltas and can itself keep producing deltas
// a further twin applies — the full base+WAL hydration shape.
func TestDeltaAcrossRestore(t *testing.T) {
	opt := Options{Bound: 8, RetainPeriods: 2}
	tasks, periods := feedPeriods(3)
	half := len(periods) / 2

	a, err := NewOnline(tasks, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range periods[:half] {
		if err := a.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c, err := RestoreOnline(snap, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range periods[half:] {
		if err := a.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
		d, err := a.PeriodDelta()
		if err != nil {
			t.Fatal(err)
		}
		if err := c.ApplyDelta(roundTrip(t, d)); err != nil {
			t.Fatal(err)
		}
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sc, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sa, sc) {
		t.Fatalf("restored+delta snapshot diverges\noriginal: %+v\nreplayed: %+v", sa, sc)
	}
}

// TestDeltaSpanError: a capture that missed a period must refuse
// rather than silently emit a multi-period diff.
func TestDeltaSpanError(t *testing.T) {
	tasks, periods := feedPeriods(1)
	o, err := NewOnline(tasks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.PeriodDelta(); !errors.Is(err, engine.ErrDeltaSpan) {
		t.Fatalf("delta before any period: %v, want ErrDeltaSpan", err)
	}
	if err := o.AddPeriod(periods[0]); err != nil {
		t.Fatal(err)
	}
	if err := o.AddPeriod(periods[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := o.PeriodDelta(); !errors.Is(err, engine.ErrDeltaSpan) {
		t.Fatalf("delta spanning two periods: %v, want ErrDeltaSpan", err)
	}
}

// TestDeltaRetainedMismatch: deltas encode the retained-ring append,
// so applying across mismatched RetainPeriods configurations is a
// typed error, not silent divergence.
func TestDeltaRetainedMismatch(t *testing.T) {
	tasks, periods := feedPeriods(1)
	a, _ := NewOnline(tasks, Options{RetainPeriods: 2})
	b, _ := NewOnline(tasks, Options{})
	if err := a.AddPeriod(periods[0]); err != nil {
		t.Fatal(err)
	}
	d, err := a.PeriodDelta()
	if err != nil {
		t.Fatal(err)
	}
	if d.Retained == nil {
		t.Fatal("retaining session emitted a delta without the retained period")
	}
	if err := b.ApplyDelta(d); err == nil {
		t.Fatal("applying a retaining delta to a non-retaining session succeeded")
	}
}

// steadyDelta converges a session on the repeated Figure-2 trace and
// returns the wire size of one more steady-state period delta, plus
// the size of a full snapshot and the live hypothesis count.
func steadyDelta(t *testing.T, opt Options) (deltaBytes, snapBytes, live int, same bool) {
	t.Helper()
	tasks, periods := feedPeriods(6)
	o, err := NewOnline(tasks, opt)
	if err != nil {
		t.Fatal(err)
	}
	var d *Delta
	for _, p := range periods {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
		if d, err = o.PeriodDelta(); err != nil {
			t.Fatal(err)
		}
	}
	db, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	return len(db), len(sb), o.WorkingSetSize(), d.Same
}

// TestDeltaSteadyStateCostIndependentOfModelSize is the acceptance
// criterion pinned: once the model is stable, the per-period
// persistence record costs O(1) bytes — it does not grow with the
// size of the hypothesis frontier, while a full snapshot does.
func TestDeltaSteadyStateCostIndependentOfModelSize(t *testing.T) {
	dSmall, sSmall, liveSmall, sameSmall := steadyDelta(t, Options{Bound: 2})
	dBig, sBig, liveBig, sameBig := steadyDelta(t, Options{Bound: 64})
	t.Logf("bound 2: live=%d delta=%dB snapshot=%dB; bound 64: live=%d delta=%dB snapshot=%dB",
		liveSmall, dSmall, sSmall, liveBig, dBig, sBig)
	if !sameSmall || !sameBig {
		t.Fatalf("steady-state deltas not marked Same (small=%v big=%v)", sameSmall, sameBig)
	}
	if liveBig <= liveSmall {
		t.Skipf("bound 64 frontier (%d) not larger than bound 2 (%d); model-size axis unavailable", liveBig, liveSmall)
	}
	if sBig <= sSmall {
		t.Errorf("snapshot did not grow with the model: %dB (big) <= %dB (small)", sBig, sSmall)
	}
	// The steady-state delta differs only in counter digits.
	if diff := dBig - dSmall; diff > 64 || diff < -64 {
		t.Errorf("steady-state delta grew with model size: %dB (big) vs %dB (small)", dBig, dSmall)
	}
}

// BenchmarkPeriodPersistence compares the per-period cost of the two
// checkpoint shapes on a converged session: full Snapshot (the old
// path — O(model)) vs PeriodDelta (the WAL path — O(change)).
func BenchmarkPeriodPersistence(b *testing.B) {
	tasks, periods := feedPeriods(6)
	mk := func(b *testing.B) *Online {
		o, err := NewOnline(tasks, Options{Bound: 32})
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range periods {
			if err := o.AddPeriod(p); err != nil {
				b.Fatal(err)
			}
		}
		// Re-anchor the delta baseline after the warm-up feed.
		if _, err := o.Snapshot(); err != nil {
			b.Fatal(err)
		}
		return o
	}
	p := periods[len(periods)-1]
	b.Run("snapshot", func(b *testing.B) {
		o := mk(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := o.AddPeriod(p); err != nil {
				b.Fatal(err)
			}
			snap, err := o.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := json.Marshal(snap); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("delta", func(b *testing.B) {
		o := mk(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := o.AddPeriod(p); err != nil {
				b.Fatal(err)
			}
			d, err := o.PeriodDelta()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := json.Marshal(d); err != nil {
				b.Fatal(err)
			}
		}
	})
}
