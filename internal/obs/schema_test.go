package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestEventKindStrings pins every kind string of the JSONL schema:
// these are a wire format consumed by offline tooling, so a rename is
// a breaking change and must fail a test, not slip through.
func TestEventKindStrings(t *testing.T) {
	kinds := map[Event]string{
		MessageProcessed{}: "message_processed",
		PeriodEnd{}:        "period_end",
		RunEnd{}:           "run_end",
		Pipeline{}:         "pipeline",
		Provenance{}:       "provenance",
		SpanEnd{}:          "span",
	}
	for e, want := range kinds {
		if got := e.Kind(); got != want {
			t.Errorf("%T.Kind() = %q, want %q", e, got, want)
		}
	}
	// The catalogue above must be exhaustive: every kind ParseJSONL
	// understands round-trips through it.
	var lines bytes.Buffer
	sink := NewJSONLSink(&lines)
	for e := range kinds {
		emitEvent(sink, e)
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	back, err := ParseJSONL(&lines)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(kinds) {
		t.Errorf("ParseJSONL returned %d of %d kinds", len(back), len(kinds))
	}
}

// emitEvent dispatches a typed event through the Observer interface.
func emitEvent(o Observer, e Event) {
	switch e := e.(type) {
	case MessageProcessed:
		o.OnMessageProcessed(e)
	case PeriodEnd:
		o.OnPeriodEnd(e)
	case RunEnd:
		o.OnRunEnd(e)
	case Pipeline:
		o.OnPipeline(e)
	case Provenance:
		o.OnProvenance(e)
	case SpanEnd:
		o.OnSpan(e)
	}
}

// TestProvenanceWireFormat pins the field names of the provenance
// event and the omission of empty optional fields.
func TestProvenanceWireFormat(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	s.OnProvenance(Provenance{Period: 2, Index: 4, Msg: "m5", Sender: "t1", Receiver: "t4",
		Task1: "t1", Task2: "t4", From: "||", To: "->", Action: "assume"})
	s.OnProvenance(Provenance{Period: 2, Index: -1, Task1: "t1", Task2: "t4",
		From: "->", To: "->?", Action: "relax"})
	s.OnSpan(SpanEnd{Phase: "generalize", ElapsedNS: 1234})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	// encoding/json HTML-escapes < and >, so lattice arrows appear as
	// < / > on the wire; ParseJSONL restores them.
	want0 := `{"event":"provenance","period":2,"index":4,"msg":"m5","sender":"t1","receiver":"t4","task1":"t1","task2":"t4","from":"||","to":"-\u003e","action":"assume"}`
	if lines[0] != want0 {
		t.Errorf("assume line:\n got %s\nwant %s", lines[0], want0)
	}
	for _, frag := range []string{`"msg"`, `"sender"`, `"receiver"`} {
		if strings.Contains(lines[1], frag) {
			t.Errorf("relax line should omit %s: %s", frag, lines[1])
		}
	}
	want2 := `{"event":"span","phase":"generalize","elapsed_ns":1234}`
	if lines[2] != want2 {
		t.Errorf("span line:\n got %s\nwant %s", lines[2], want2)
	}
}

// TestPrometheusGolden pins the Prometheus text exposition format
// (0.0.4): HELP/TYPE preamble, counter and gauge samples, cumulative
// histogram buckets with +Inf, _sum and _count.
func TestPrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("modelgen_learner_runs_total", "completed learning runs").Add(3)
	reg.Gauge("modelgen_learner_peak_hypotheses", "peak working-set size").Set(17)
	h := reg.Histogram("modelgen_phase_generalize_seconds", "wall time of the generalize phase", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(2)

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"# HELP modelgen_learner_peak_hypotheses peak working-set size",
		"# TYPE modelgen_learner_peak_hypotheses gauge",
		"modelgen_learner_peak_hypotheses 17",
		"# HELP modelgen_learner_runs_total completed learning runs",
		"# TYPE modelgen_learner_runs_total counter",
		"modelgen_learner_runs_total 3",
		"# HELP modelgen_phase_generalize_seconds wall time of the generalize phase",
		"# TYPE modelgen_phase_generalize_seconds histogram",
		`modelgen_phase_generalize_seconds_bucket{le="0.001"} 1`,
		`modelgen_phase_generalize_seconds_bucket{le="0.01"} 1`,
		`modelgen_phase_generalize_seconds_bucket{le="0.1"} 2`,
		`modelgen_phase_generalize_seconds_bucket{le="+Inf"} 3`,
		"modelgen_phase_generalize_seconds_sum 2.0505",
		"modelgen_phase_generalize_seconds_count 3",
		"",
	}, "\n")
	if got := buf.String(); got != want {
		t.Errorf("Prometheus exposition diverges:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestSpanEmission checks the Span helper end to end: phase name and
// a sane elapsed time on the observed path, full inertness on the nil
// path.
func TestSpanEmission(t *testing.T) {
	r := NewRecorder()
	sp := StartSpan(r, PhaseGeneralize)
	sp.End()
	evs := r.OfKind("span")
	if len(evs) != 1 {
		t.Fatalf("span events = %d", len(evs))
	}
	e := evs[0].(SpanEnd)
	if e.Phase != "generalize" || e.ElapsedNS < 0 {
		t.Errorf("span = %+v", e)
	}

	nilSpan := StartSpan(nil, PhaseVerify)
	nilSpan.End() // must not panic
	if !nilSpan.start.IsZero() {
		t.Error("nil-observer span read the clock")
	}
}

// TestSpanMetricsBridge: span events create and feed the per-phase
// histogram lazily.
func TestSpanMetricsBridge(t *testing.T) {
	reg := NewRegistry()
	mo := NewMetricsObserver(reg)
	mo.OnSpan(SpanEnd{Phase: "candidates", ElapsedNS: 2_000_000}) // 2ms
	mo.OnSpan(SpanEnd{Phase: "candidates", ElapsedNS: 3_000_000})
	snap := reg.Snapshot()
	m, ok := snap[PhaseMetric("candidates")]
	if !ok {
		t.Fatalf("no %s in snapshot", PhaseMetric("candidates"))
	}
	if m.Count != 2 {
		t.Errorf("count = %d, want 2", m.Count)
	}
	if m.Sum < 0.0049 || m.Sum > 0.0051 {
		t.Errorf("sum = %v, want ~0.005", m.Sum)
	}
}

// TestFileSinkRoundTrip: the shared -events helper writes a parseable
// stream, flushes on Close, and reports its destination.
func TestFileSinkRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	sink, err := OpenFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	if sink.Path() != path {
		t.Errorf("Path() = %q", sink.Path())
	}
	rec := NewRecorder()
	emitAll(NewMulti(rec, sink))
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := ParseJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec.Events()) {
		t.Errorf("file round trip diverges from recorder")
	}
	// Every line must be standalone JSON (buffered writes must not
	// split lines).
	data, _ := os.ReadFile(path)
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !json.Valid([]byte(line)) {
			t.Errorf("line %d is not valid JSON: %s", i+1, line)
		}
	}
}

// TestFileSinkCreateError: an unwritable path fails at open, not at
// first event.
func TestFileSinkCreateError(t *testing.T) {
	if _, err := OpenFileSink(filepath.Join(t.TempDir(), "no", "such", "dir", "x.jsonl")); err == nil {
		t.Error("OpenFileSink accepted an unwritable path")
	}
}
