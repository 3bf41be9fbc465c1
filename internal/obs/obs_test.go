package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// emitAll drives one of every event through an observer.
func emitAll(o Observer) {
	o.OnMessageProcessed(MessageProcessed{Period: 0, Index: 0, ID: "m1", Candidates: 2, Live: 2})
	o.OnMessageProcessed(MessageProcessed{Period: 0, Index: 1, ID: "m2", Candidates: 1, Live: 1})
	o.OnPeriodEnd(PeriodEnd{Period: 0, Messages: 2, Children: 3, Merges: 1, Subsumed: 2,
		Live: 1, Dropped: 1, WeightMin: 3, WeightMax: 3, Relaxations: 4})
	o.OnRunEnd(RunEnd{Periods: 1, Messages: 2, Final: 1, Peak: 2, ElapsedNS: 1_000_000})
	o.OnPipeline(Pipeline{Stage: "trace", Name: "events_read", Value: 12})
	o.OnProvenance(Provenance{Period: 0, Index: 0, Msg: "m1", Sender: "t1", Receiver: "t4",
		Task1: "t1", Task2: "t4", From: "||", To: "->", Action: "assume"})
	o.OnSpan(SpanEnd{Phase: "generalize", ElapsedNS: 42_000})
}

func TestRecorderOrderAndFilters(t *testing.T) {
	r := NewRecorder()
	emitAll(r)
	wantKinds := []string{
		"message_processed", "message_processed",
		"period_end", "run_end", "pipeline", "provenance", "span",
	}
	if got := r.Kinds(); !reflect.DeepEqual(got, wantKinds) {
		t.Errorf("kinds = %v, want %v", got, wantKinds)
	}
	if r.Count("message_processed") != 2 {
		t.Errorf("Count(message_processed) = %d, want 2", r.Count("message_processed"))
	}
	ms := r.OfKind("message_processed")
	if ms[1].(MessageProcessed).ID != "m2" {
		t.Errorf("second message event = %+v", ms[1])
	}
	if r.Len() != 7 {
		t.Errorf("Len = %d, want 7", r.Len())
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("Reset did not clear")
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	emitAll(s)
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	// Every line is standalone JSON with an "event" key.
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	lines := 0
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", lines, err, sc.Text())
		}
		if _, ok := m["event"]; !ok {
			t.Errorf("line %d has no event field: %s", lines, sc.Text())
		}
	}
	if lines != 7 {
		t.Errorf("lines = %d, want 7", lines)
	}
	// And the typed parser reconstructs the same events a Recorder saw.
	rec := NewRecorder()
	emitAll(rec)
	back, err := ParseJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, rec.Events()) {
		t.Errorf("ParseJSONL mismatch:\n got %#v\nwant %#v", back, rec.Events())
	}
}

func TestJSONLSkipsUnknownKinds(t *testing.T) {
	in := `{"event":"from_the_future","x":1}` + "\n" + `{"event":"run_end","periods":3}` + "\n"
	evs, err := ParseJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].(RunEnd).Periods != 3 {
		t.Errorf("events = %#v, want the single run_end", evs)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	if w.n > 1 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

func TestJSONLSinkStickyError(t *testing.T) {
	s := NewJSONLSink(&failWriter{})
	s.OnRunEnd(RunEnd{})
	s.OnRunEnd(RunEnd{})
	s.OnRunEnd(RunEnd{})
	if s.Err() == nil {
		t.Error("write error not surfaced")
	}
}

func TestNewMulti(t *testing.T) {
	if NewMulti() != nil || NewMulti(nil, nil) != nil {
		t.Error("empty Multi should be nil to preserve the fast path")
	}
	r := NewRecorder()
	if NewMulti(nil, r) != Observer(r) {
		t.Error("single observer should be returned unwrapped")
	}
	r2 := NewRecorder()
	m := NewMulti(r, r2)
	emitAll(m)
	if r.Len() != 7 || r2.Len() != 7 {
		t.Errorf("fan-out lens = %d/%d, want 7/7", r.Len(), r2.Len())
	}
}

func TestMetricsObserverBridge(t *testing.T) {
	reg := NewRegistry()
	mo := NewMetricsObserver(reg)
	emitAll(mo)
	// A skipped period counts as a period and its messages, and
	// nothing else moves.
	mo.OnPeriodEnd(PeriodEnd{Period: 1, Messages: 3, Live: 1, WeightMin: 3, WeightMax: 3, Skipped: true})
	snap := reg.Snapshot()
	checks := map[string]int64{
		MetricPeriods:                      2,
		MetricPeriodsSkipped:               1,
		MetricMessages:                     5,
		MetricSpawned:                      3,
		MetricPruned:                       3, // subsumed + dropped
		MetricMerges:                       1,
		MetricRelaxations:                  4,
		MetricRuns:                         1,
		MetricLive:                         1,
		MetricPeak:                         2,
		"modelgen_trace_events_read_total": 12,
		MetricProvSteps:                    1,
	}
	for name, want := range checks {
		if got := snap.Value(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if snap.HistCount(MetricCandidates) != 2 {
		t.Errorf("candidate observations = %d, want 2", snap.HistCount(MetricCandidates))
	}
	if snap.HistCount(MetricRunSeconds) != 1 || snap[MetricRunSeconds].Sum != 0.001 {
		t.Errorf("run_seconds = %+v, want one 1ms observation", snap[MetricRunSeconds])
	}
}

func TestDebugServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("probe_total", "").Add(9)
	srv, err := StartDebugServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := httpGet("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp
	}
	if body := get("/metrics"); !strings.Contains(body, "probe_total 9") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	if body := get("/metrics"); !strings.Contains(body, "go_goroutines") {
		t.Errorf("/metrics missing runtime metrics:\n%s", body)
	}
	if body := get("/debug/pprof/cmdline"); body == "" {
		t.Error("pprof endpoint returned nothing")
	}
}
