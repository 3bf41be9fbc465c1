package learner

import (
	"errors"
	"math/rand"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// TestOnlineEqualsBatch: feeding periods incrementally produces the
// same hypothesis set as the batch Learn, for exact and bounded
// variants, on the paper example and random traces.
func TestOnlineEqualsBatch(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	traces := []*trace.Trace{trace.PaperFigure2()}
	for i := 0; i < 10; i++ {
		traces = append(traces, randomTrace(r, 3+r.Intn(3), 2+r.Intn(4), 3))
	}
	for ti, tr := range traces {
		for _, bound := range []int{0, 1, 4} {
			opt := Options{Bound: bound}
			batch, err := Learn(tr, opt)
			if err != nil {
				t.Fatalf("trace %d bound %d: batch: %v", ti, bound, err)
			}
			o, err := NewOnline(tr.Tasks, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tr.Periods {
				if err := o.AddPeriod(p); err != nil {
					t.Fatalf("trace %d bound %d: online: %v", ti, bound, err)
				}
			}
			res, err := o.Result()
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Hypotheses) != len(batch.Hypotheses) {
				t.Fatalf("trace %d bound %d: online %d vs batch %d hypotheses",
					ti, bound, len(res.Hypotheses), len(batch.Hypotheses))
			}
			for i := range res.Hypotheses {
				if !res.Hypotheses[i].Equal(batch.Hypotheses[i]) {
					t.Errorf("trace %d bound %d: hypothesis %d differs", ti, bound, i)
				}
			}
		}
	}
}

// TestOnlineIntermediateResults: results can be read out after every
// period; the set after the first period of the paper example is the
// paper's {d21, d22, d23}.
func TestOnlineIntermediateResults(t *testing.T) {
	tr := trace.PaperFigure2()
	o, err := NewOnline(tr.Tasks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddPeriod(tr.Periods[0]); err != nil {
		t.Fatal(err)
	}
	mid, err := o.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(mid.Hypotheses) != 3 {
		t.Fatalf("after period 1: %d hypotheses, want 3", len(mid.Hypotheses))
	}
	if !containsDep(mid.Hypotheses, paperD21) || !containsDep(mid.Hypotheses, paperD22) ||
		!containsDep(mid.Hypotheses, paperD23) {
		t.Error("intermediate set is not {d21, d22, d23}")
	}
	// Continue the session; the final result matches the paper.
	if err := o.AddPeriod(tr.Periods[1]); err != nil {
		t.Fatal(err)
	}
	if err := o.AddPeriod(tr.Periods[2]); err != nil {
		t.Fatal(err)
	}
	final, err := o.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Hypotheses) != 5 {
		t.Fatalf("final: %d hypotheses, want 5", len(final.Hypotheses))
	}
	if !final.LUB.Equal(paperDLUB) {
		t.Errorf("final LUB:\n%s", final.LUB.Table())
	}
}

// TestOnlineSnapshotIsolation: a snapshot taken mid-stream is not
// mutated by later periods.
func TestOnlineSnapshotIsolation(t *testing.T) {
	tr := trace.PaperFigure2()
	o, err := NewOnline(tr.Tasks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddPeriod(tr.Periods[0]); err != nil {
		t.Fatal(err)
	}
	mid, _ := o.Result()
	before := make([]string, len(mid.Hypotheses))
	for i, d := range mid.Hypotheses {
		before[i] = d.Key()
	}
	if err := o.AddPeriod(tr.Periods[1]); err != nil {
		t.Fatal(err)
	}
	for i, d := range mid.Hypotheses {
		if d.Key() != before[i] {
			t.Fatal("snapshot mutated by later AddPeriod")
		}
	}
}

// TestOnlineStickyError: once a period cannot be explained the session
// is dead and stays dead.
func TestOnlineStickyError(t *testing.T) {
	bad := trace.NewBuilder([]string{"a", "b"}).
		StartPeriod().Msg("m", 0, 1).Exec("a", 2, 3).Exec("b", 4, 5).
		MustBuild()
	good := trace.PaperFigure2()

	o, err := NewOnline([]string{"a", "b"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddPeriod(bad.Periods[0]); !errors.Is(err, ErrNoHypothesis) {
		t.Fatalf("err = %v, want ErrNoHypothesis", err)
	}
	if o.Err() == nil {
		t.Fatal("Err() not sticky")
	}
	if err := o.AddPeriod(good.Periods[0]); err == nil {
		t.Fatal("dead session accepted a period")
	}
	if _, err := o.Result(); err == nil {
		t.Fatal("dead session returned a result")
	}
}

func TestOnlineBadTaskSet(t *testing.T) {
	if _, err := NewOnline([]string{"a", "a"}, Options{}); err == nil {
		t.Fatal("duplicate task names accepted")
	}
}

func TestOnlineAccessors(t *testing.T) {
	tr := trace.PaperFigure2()
	o, err := NewOnline(tr.Tasks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if o.TaskSet().Len() != 4 {
		t.Error("TaskSet wrong")
	}
	if o.WorkingSetSize() != 1 {
		t.Errorf("initial working set = %d, want 1 (d-bottom)", o.WorkingSetSize())
	}
	if err := o.AddPeriod(tr.Periods[0]); err != nil {
		t.Fatal(err)
	}
	if o.Stats().Periods != 1 || o.Stats().Messages != 2 {
		t.Errorf("stats = %+v", o.Stats())
	}
	if o.WorkingSetSize() != 3 {
		t.Errorf("working set = %d, want 3", o.WorkingSetSize())
	}
}

// TestOnlineEmptySession: a session with no periods returns d-bottom.
func TestOnlineEmptySession(t *testing.T) {
	o, err := NewOnline([]string{"x", "y"}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := o.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Hypotheses[0].Equal(depfunc.Bottom(res.TaskSet)) {
		t.Error("empty session should yield d-bottom")
	}
}

// simFigure1Trace simulates the Figure 1 model for the given number of
// periods under one seed; satellite tests use it for traces whose
// bounded-mode runs actually exercise merging (unlike the tiny paper
// example).
func simFigure1Trace(t *testing.T, periods int, seed int64) *trace.Trace {
	t.Helper()
	out, err := sim.Run(model.Figure1(), sim.Options{Periods: periods, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return out.Trace
}

// TestOnlineRingWraparound pins the ring buffer's content across the
// wrap: after feeding n periods into a k-slot window, the retained
// trace must hold exactly the last k periods, oldest first, preserving
// each period's messages and executions.
func TestOnlineRingWraparound(t *testing.T) {
	tr := simFigure1Trace(t, 7, 5)
	const k = 3
	o, err := NewOnline(tr.Tasks, Options{RetainPeriods: k})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
		if want := min(i+1, k); o.RetainedPeriods() != want {
			t.Fatalf("after period %d: RetainedPeriods = %d, want %d", i, o.RetainedPeriods(), want)
		}
	}
	got := o.retainedTrace()
	if len(got.Periods) != k {
		t.Fatalf("retained trace has %d periods, want %d", len(got.Periods), k)
	}
	want := tr.Periods[len(tr.Periods)-k:]
	for i, p := range got.Periods {
		w := want[i]
		if len(p.Msgs) != len(w.Msgs) || len(p.Execs) != len(w.Execs) {
			t.Fatalf("retained period %d shape differs: %d msgs/%d execs, want %d/%d",
				i, len(p.Msgs), len(p.Execs), len(w.Msgs), len(w.Execs))
		}
		for j, m := range p.Msgs {
			if m != w.Msgs[j] {
				t.Fatalf("retained period %d message %d = %+v, want %+v", i, j, m, w.Msgs[j])
			}
		}
		for task, iv := range w.Execs {
			if p.Execs[task] != iv {
				t.Fatalf("retained period %d exec %q = %+v, want %+v", i, task, p.Execs[task], iv)
			}
		}
	}
}

// TestOnlineHugeRetainWindow: the retention ring grows as periods
// arrive, so a window far larger than memory costs nothing up front,
// in a new session or a restored one.
func TestOnlineHugeRetainWindow(t *testing.T) {
	tr := trace.PaperFigure2()
	opt := Options{RetainPeriods: 1 << 40, VerifyResults: true}
	o, err := NewOnline(tr.Tasks, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.Result(); err != nil {
		t.Fatal(err)
	}
	snap, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	back, err := RestoreOnline(snap, Options{VerifyResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := back.RetainedPeriods(); got != len(tr.Periods) {
		t.Fatalf("restored ring holds %d periods, want %d", got, len(tr.Periods))
	}
	if err := back.AddPeriod(tr.Periods[0]); err != nil {
		t.Fatal(err)
	}
	if got := back.RetainedPeriods(); got != len(tr.Periods)+1 {
		t.Fatalf("ring holds %d periods after one more, want %d", got, len(tr.Periods)+1)
	}
}

// TestOnlineVerifyUnavailableSentinel: the sentinel is distinguishable
// with errors.Is and is a Result-time condition, not a session
// failure — the session stays alive, keeps accepting periods, and
// keeps returning the sentinel until retention is configured.
func TestOnlineVerifyUnavailableSentinel(t *testing.T) {
	tr := trace.PaperFigure2()
	o, err := NewOnline(tr.Tasks, Options{VerifyResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddPeriod(tr.Periods[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Result(); !errors.Is(err, ErrVerifyUnavailable) {
		t.Fatalf("Result = %v, want ErrVerifyUnavailable", err)
	}
	if o.Err() != nil {
		t.Fatalf("verification unavailability stuck to the session: %v", o.Err())
	}
	// The session is still live: more periods are accepted, the working
	// set keeps evolving, and the answer stays the same sentinel.
	if err := o.AddPeriod(tr.Periods[1]); err != nil {
		t.Fatalf("AddPeriod after the sentinel: %v", err)
	}
	if o.WorkingSetSize() == 0 {
		t.Fatal("working set vanished after the sentinel")
	}
	if _, err := o.Result(); !errors.Is(err, ErrVerifyUnavailable) {
		t.Fatalf("second Result = %v, want ErrVerifyUnavailable again", err)
	}
}

// TestOnlineVerifyAfterWrapEqualsBatchSuffix: verification after the
// ring wraps is equivalent to batch-learning the full trace without
// verification and filtering the hypotheses against the retained
// suffix by hand — in bounded mode, where verification has teeth
// (merged hypotheses can fail to match their own trace).
func TestOnlineVerifyAfterWrapEqualsBatchSuffix(t *testing.T) {
	const k = 2
	for seed := int64(0); seed < 8; seed++ {
		tr := simFigure1Trace(t, 6, seed)
		for _, bound := range []int{0, 2, 4} {
			o, err := NewOnline(tr.Tasks, Options{Bound: bound, VerifyResults: true, RetainPeriods: k})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range tr.Periods {
				if err := o.AddPeriod(p); err != nil {
					t.Fatal(err)
				}
			}

			batch, err := Learn(tr, Options{Bound: bound})
			if err != nil {
				t.Fatalf("seed %d bound %d: batch: %v", seed, bound, err)
			}
			suffix := trace.New(tr.Tasks)
			suffix.Periods = append(suffix.Periods, tr.Periods[len(tr.Periods)-k:]...)
			var wantKeys []string
			for _, d := range batch.Hypotheses {
				if ok, _ := depfunc.MatchTrace(d, suffix, depfunc.CandidatePolicy{}); ok {
					wantKeys = append(wantKeys, d.Key())
				}
			}

			got, err := o.Result()
			if len(wantKeys) == 0 {
				if !errors.Is(err, ErrNoHypothesis) {
					t.Fatalf("seed %d bound %d: hand filter kept nothing but Result = %v, want ErrNoHypothesis",
						seed, bound, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("seed %d bound %d: %v", seed, bound, err)
			}
			gotKeys := make([]string, 0, len(got.Hypotheses))
			for _, d := range got.Hypotheses {
				gotKeys = append(gotKeys, d.Key())
			}
			if len(gotKeys) != len(wantKeys) {
				t.Fatalf("seed %d bound %d: verified-after-wrap returned %d hypotheses, hand filter kept %d",
					seed, bound, len(gotKeys), len(wantKeys))
			}
			for i := range gotKeys {
				if gotKeys[i] != wantKeys[i] {
					t.Fatalf("seed %d bound %d: hypothesis %d is %q, hand filter has %q",
						seed, bound, i, gotKeys[i], wantKeys[i])
				}
			}
			if dropped := len(batch.Hypotheses) - len(wantKeys); dropped != got.Stats.DroppedUnsound {
				t.Fatalf("seed %d bound %d: DroppedUnsound = %d, hand filter dropped %d",
					seed, bound, got.Stats.DroppedUnsound, dropped)
			}
		}
	}
}
