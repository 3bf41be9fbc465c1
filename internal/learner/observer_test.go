package learner

import (
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// periodEnds returns the period_end events a recorder captured.
func periodEnds(rec *obs.Recorder) []obs.PeriodEnd {
	var out []obs.PeriodEnd
	for _, e := range rec.OfKind("period_end") {
		out = append(out, e.(obs.PeriodEnd))
	}
	return out
}

// TestObserverEventSequenceExact pins the structured run-trace of the
// exact algorithm on the paper's Figure 2 trace: the per-period
// sequence, the per-event payloads, and their agreement with
// Result.Stats.
func TestObserverEventSequenceExact(t *testing.T) {
	tr := trace.PaperFigure2()
	rec := obs.NewRecorder()
	res, err := Learn(tr, Options{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}

	// Each period closes the candidates span, reports every message,
	// closes the generalize and postprocess spans and then the period
	// with period_end; the run closes with run_end. The paper trace
	// has 2, 2 and 4 messages per period.
	period := func(msgs int) []string {
		out := []string{"span"}
		for range msgs {
			out = append(out, "message_processed")
		}
		return append(out, "span", "span", "period_end")
	}
	var want []string
	for _, msgs := range []int{2, 2, 4} {
		want = append(want, period(msgs)...)
	}
	want = append(want, "run_end")
	if got := rec.Kinds(); !reflect.DeepEqual(got, want) {
		t.Errorf("event sequence:\n got %v\nwant %v", got, want)
	}

	// The period counters must sum to Stats. The exact algorithm
	// never merges. Period 0 of the paper trace subsumes nothing; in
	// periods 1 and 2 messages subsume, which leaves the period-end
	// prune nothing to remove.
	var msgs, children int
	for i, pe := range periodEnds(rec) {
		msgs += pe.Messages
		children += pe.Children
		if pe.Merges != 0 {
			t.Errorf("period %d: exact run merged %d times", i, pe.Merges)
		}
		if subsumes := pe.Subsumed > 0; subsumes != (i > 0) || (i > 0 && pe.Dropped != 0) {
			t.Errorf("period %d: subsumed %d, dropped %d", i, pe.Subsumed, pe.Dropped)
		}
	}
	if children != res.Stats.Children {
		t.Errorf("period_end children sum to %d, Stats.Children = %d", children, res.Stats.Children)
	}
	if msgs != res.Stats.Messages || rec.Count("message_processed") != res.Stats.Messages {
		t.Errorf("period_end messages sum to %d, %d message events, Stats.Messages = %d",
			msgs, rec.Count("message_processed"), res.Stats.Messages)
	}

	// Per-message payloads: candidate fan-out sums to Stats.Candidates
	// and IDs follow the trace.
	var candSum, idx int
	for _, e := range rec.OfKind("message_processed") {
		m := e.(obs.MessageProcessed)
		candSum += m.Candidates
		wantID := []string{"m1", "m2", "m3", "m4", "m5", "m6", "m7", "m8"}[idx]
		if m.ID != wantID {
			t.Errorf("message %d: ID = %q, want %q", idx, m.ID, wantID)
		}
		idx++
	}
	if candSum != res.Stats.Candidates {
		t.Errorf("candidate sum over events = %d, Stats.Candidates = %d", candSum, res.Stats.Candidates)
	}

	// Per-period live counts: each period_end's live field is the
	// working-set size right after that period's AddPeriod in an
	// online session, and the final one matches the result. The exact
	// algorithm on Figure 2 returns the paper's 5 most specific
	// hypotheses.
	ends := rec.OfKind("period_end")
	if len(ends) != len(tr.Periods) {
		t.Fatalf("period_end events = %d, periods = %d", len(ends), len(tr.Periods))
	}
	orec := obs.NewRecorder()
	o, err := NewOnline(tr.Tasks, Options{Observer: orec})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
		oends := periodEnds(orec)
		if len(oends) != i+1 {
			t.Fatalf("after period %d: %d online period_end events", i, len(oends))
		}
		if live := oends[i].Live; live != o.WorkingSetSize() || live != ends[i].(obs.PeriodEnd).Live {
			t.Errorf("period %d: online event live = %d, WorkingSetSize = %d, batch event live = %d",
				i, live, o.WorkingSetSize(), ends[i].(obs.PeriodEnd).Live)
		}
	}
	for i, e := range ends {
		pe := e.(obs.PeriodEnd)
		if pe.WeightMin > pe.WeightMax {
			t.Errorf("period %d: weight range %d..%d inverted", i, pe.WeightMin, pe.WeightMax)
		}
	}
	final := ends[len(ends)-1].(obs.PeriodEnd)
	if final.Live != 5 || res.Stats.Final != 5 || len(res.Hypotheses) != 5 {
		t.Errorf("final live/Stats.Final/result = %d/%d/%d, want 5 (paper)",
			final.Live, res.Stats.Final, len(res.Hypotheses))
	}

	// run_end mirrors the headline stats.
	re := rec.OfKind("run_end")[0].(obs.RunEnd)
	if re.Periods != 3 || re.Messages != 8 || re.Final != 5 || re.Peak != res.Stats.Peak {
		t.Errorf("run_end = %+v, stats = %+v", re, res.Stats)
	}
	if re.ElapsedNS <= 0 || res.Stats.Elapsed <= 0 {
		t.Errorf("elapsed not populated: event %d ns, stats %v", re.ElapsedNS, res.Stats.Elapsed)
	}
}

// TestObserverEventSequenceSkipped pins the run-trace of a period the
// engine skips: the paper's Figure 2 trace with its third period
// repeated. The repeat has a shape the exact learner has already
// learned, so it emits only its candidates span and a period_end
// marked skipped, with zero work counters and the live count of the
// period before; the counters still sum to Stats.
func TestObserverEventSequenceSkipped(t *testing.T) {
	tr := trace.PaperFigure2()
	again := tr.Periods[2].Clone()
	again.Index = len(tr.Periods)
	tr.Periods = append(tr.Periods, again)
	rec := obs.NewRecorder()
	res, err := Learn(tr, Options{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	kinds := rec.Kinds()
	if tail := kinds[len(kinds)-3:]; !reflect.DeepEqual(tail, []string{"span", "period_end", "run_end"}) {
		t.Errorf("repeated period's events: got %v, want [span period_end run_end]", tail)
	}
	ends := periodEnds(rec)
	var msgs int
	for i, pe := range ends {
		msgs += pe.Messages
		if pe.Skipped != (i == 3) {
			t.Errorf("period %d: skipped = %v", i, pe.Skipped)
		}
	}
	want := obs.PeriodEnd{Period: 3, Messages: 4, Live: ends[2].Live,
		WeightMin: ends[2].WeightMin, WeightMax: ends[2].WeightMax, Skipped: true}
	if ends[3] != want {
		t.Errorf("skipped period_end = %+v, want %+v", ends[3], want)
	}
	if msgs != res.Stats.Messages || res.Stats.Periods != 4 || res.Stats.Final != 5 {
		t.Errorf("period_end messages sum to %d; stats %+v", msgs, res.Stats)
	}
}

// TestObserverEventsBounded checks the heuristic at b=2 on the paper
// trace: bounded merging must happen and the period_end merge counts
// must sum to Stats.Merges, and the per-period live counts must
// respect the bound.
func TestObserverEventsBounded(t *testing.T) {
	tr := trace.PaperFigure2()
	rec := obs.NewRecorder()
	res, err := Learn(tr, Options{Bound: 2, Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Merges == 0 {
		t.Fatal("bound 2 on the paper trace did not merge; the test premise is broken")
	}
	merges := 0
	for _, pe := range periodEnds(rec) {
		merges += pe.Merges
		if pe.Live > 2 {
			t.Errorf("period %d: live = %d exceeds bound 2", pe.Period, pe.Live)
		}
		if pe.Subsumed != 0 {
			t.Errorf("period %d: bounded run subsumed %d", pe.Period, pe.Subsumed)
		}
	}
	if merges != res.Stats.Merges {
		t.Errorf("period_end merges sum to %d, Stats.Merges = %d", merges, res.Stats.Merges)
	}
	// The observer must not change results: same run without one.
	plain, err := Learn(trace.PaperFigure2(), Options{Bound: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.LUB.Equal(plain.LUB) {
		t.Error("observed and unobserved runs disagree on the LUB")
	}
}

// TestOnlineObserverPerPeriod checks that the incremental learner
// emits period events as periods arrive (not only at the end).
func TestOnlineObserverPerPeriod(t *testing.T) {
	tr := trace.PaperFigure2()
	rec := obs.NewRecorder()
	o, err := NewOnline(tr.Tasks, Options{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddPeriod(tr.Periods[0]); err != nil {
		t.Fatal(err)
	}
	if rec.Count("period_end") != 1 {
		t.Errorf("after one period: %d period_end events", rec.Count("period_end"))
	}
	if rec.Count("run_end") != 0 {
		t.Error("online session emitted run_end")
	}
	if got := o.Stats().Periods; got != 1 {
		t.Errorf("Stats().Periods = %d, want 1", got)
	}
}

// TestMetricsObserverOnRealRuns attaches the metrics bridge to real
// learning runs, exact and bounded, and checks that its counters
// agree with Result.Stats and with the recorded period_end events.
func TestMetricsObserverOnRealRuns(t *testing.T) {
	for _, c := range []struct {
		name string
		tr   *trace.Trace
		opt  Options
	}{
		{"figure2-exact", trace.PaperFigure2(), Options{}},
		{"figure2-b2", trace.PaperFigure2(), Options{Bound: 2}},
		{"lite-b16", casestudy.MustLiteTrace(), Options{Bound: 16, Policy: casestudy.LitePolicy()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			rec := obs.NewRecorder()
			c.opt.Observer = obs.NewMulti(rec, obs.NewMetricsObserver(reg))
			res, err := Learn(c.tr, c.opt)
			if err != nil {
				t.Fatal(err)
			}
			pruned, skipped := 0, 0
			for _, pe := range periodEnds(rec) {
				pruned += pe.Subsumed + pe.Dropped
				if pe.Skipped {
					skipped++
				}
			}
			snap := reg.Snapshot()
			st := res.Stats
			for name, want := range map[string]int{
				obs.MetricPeriods:        st.Periods,
				obs.MetricMessages:       st.Messages,
				obs.MetricSpawned:        st.Children,
				obs.MetricMerges:         st.Merges,
				obs.MetricRelaxations:    st.Relaxations,
				obs.MetricPruned:         pruned,
				obs.MetricPeriodsSkipped: skipped,
			} {
				if got := snap.Value(name); got != int64(want) {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
			if c.opt.Bound > 0 && st.Merges == 0 {
				t.Errorf("bound %d did not merge; the test premise is broken", c.opt.Bound)
			}
			if pruned == 0 {
				t.Error("nothing was pruned; the test premise is broken")
			}
		})
	}
}

// TestNopObserverZeroAlloc proves the instrumentation adds zero
// allocations when disabled: a run with the Nop observer attached
// allocates no more than a run with a nil Observer (guarded via
// testing.AllocsPerRun over the learner's hot path).
//
// AllocsPerRun truncates its mean, and the runtime's allocation
// count drifts by one with what ran before, so the Nop reading is
// bracketed by two nil readings taken before and after it and must
// lie within them. An observer-dependent allocation adds at least one
// per emitted event, far outside that bracket.
func TestNopObserverZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is nondeterministic under the race detector (sync.Pool drops puts at random)")
	}
	tr := trace.PaperFigure2()
	run := func(o obs.Observer) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, err := Learn(tr, Options{Bound: 8, Observer: o}); err != nil {
				t.Fatal(err)
			}
		})
	}
	nilBefore := run(nil)
	nopAllocs := run(obs.Nop)
	nilAfter := run(nil)
	if lo, hi := min(nilBefore, nilAfter), max(nilBefore, nilAfter); nopAllocs < lo || nopAllocs > hi {
		t.Errorf("allocations differ: Nop observer %.0f, nil observer %.0f before and %.0f after", nopAllocs, nilBefore, nilAfter)
	}
}

func BenchmarkLearnNopObserver(b *testing.B) {
	tr := trace.PaperFigure2()
	for _, bench := range []struct {
		name string
		obsv obs.Observer
	}{
		{"nil", nil},
		{"nop", obs.Nop},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Learn(tr, Options{Bound: 8, Observer: bench.obsv}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLearnRecorder quantifies the cost of full event capture,
// for the record (not asserted: capture is allowed to allocate).
func BenchmarkLearnRecorder(b *testing.B) {
	tr := trace.PaperFigure2()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := obs.NewRecorder()
		if _, err := Learn(tr, Options{Bound: 8, Observer: rec}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestObserverBatchOnlineEquivalent: the observer sees the same
// period/message event stream whether periods are fed in batch or
// incrementally.
func TestObserverBatchOnlineEquivalent(t *testing.T) {
	tr := trace.PaperFigure2()
	recBatch := obs.NewRecorder()
	if _, err := Learn(tr, Options{Bound: 4, Observer: recBatch}); err != nil {
		t.Fatal(err)
	}
	recOnline := obs.NewRecorder()
	o, err := NewOnline(tr.Tasks, Options{Bound: 4, Observer: recOnline})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	// Identical except the batch run's trailing run_end. Span
	// durations are wall-clock and differ between the two runs, so
	// they are zeroed before comparing.
	gotB := stripSpanTimes(recBatch.Events())
	gotO := stripSpanTimes(recOnline.Events())
	if len(gotB) != len(gotO)+1 || gotB[len(gotB)-1].Kind() != "run_end" {
		t.Fatalf("batch %d events, online %d; batch must only add run_end", len(gotB), len(gotO))
	}
	if !reflect.DeepEqual(gotB[:len(gotB)-1], gotO) {
		t.Error("batch and online event streams diverge")
	}
}

// stripSpanTimes zeroes the wall-clock duration of span events so two
// equivalent runs compare equal.
func stripSpanTimes(events []obs.Event) []obs.Event {
	out := make([]obs.Event, len(events))
	for i, e := range events {
		if sp, ok := e.(obs.SpanEnd); ok {
			sp.ElapsedNS = 0
			out[i] = sp
			continue
		}
		out[i] = e
	}
	return out
}

// TestObserverMatchesJSONLRoundTrip drives the full offline loop the
// CLI uses: learner -> JSONL -> ParseJSONL -> same events.
func TestObserverMatchesJSONLRoundTrip(t *testing.T) {
	tr := trace.PaperFigure2()
	rec := obs.NewRecorder()
	var buf sliceWriter
	sink := obs.NewJSONLSink(&buf)
	if _, err := Learn(tr, Options{Bound: 2, Observer: obs.NewMulti(rec, sink)}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec.Events()) {
		t.Error("JSONL round trip diverges from the recorder")
	}
}

// sliceWriter is a minimal in-memory io.ReadWriter for the round-trip
// test, avoiding a bytes import dance.
type sliceWriter struct {
	b []byte
	r int
}

func (w *sliceWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *sliceWriter) Read(p []byte) (int, error) {
	if w.r >= len(w.b) {
		return 0, errEOF
	}
	n := copy(p, w.b[w.r:])
	w.r += n
	return n, nil
}

var errEOF = errorString("EOF")

type errorString string

func (e errorString) Error() string { return string(e) }
