package load

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
)

func inprocServer(t testing.TB, cfg serve.Config) *serve.Server {
	t.Helper()
	sv := serve.New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return sv
}

// TestSummarizeNearestRank: summarize's quantiles are nearest-rank
// samples, so p99 is the maximum below 100 samples and p95 and p99
// stay apart from 21 samples on. The samples are 1..n, shuffled.
func TestSummarizeNearestRank(t *testing.T) {
	for _, c := range []struct {
		n             int
		p50, p95, p99 float64
	}{
		{1, 1, 1, 1},
		{10, 5, 10, 10},
		{21, 11, 20, 21},
		{100, 50, 95, 99},
		{1000, 500, 950, 990},
	} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		rand.New(rand.NewSource(int64(c.n))).Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		got := summarize(s)
		want := Latency{P50: c.p50, P95: c.p95, P99: c.p99, Max: float64(c.n), Mean: float64(c.n+1) / 2}
		if got != want {
			t.Errorf("n=%d: got %+v, want %+v", c.n, got, want)
		}
	}
}

func TestRunInProcess(t *testing.T) {
	reg := obs.NewRegistry()
	sv := inprocServer(t, serve.Config{Registry: reg})
	rep, err := Run(context.Background(), Config{
		Handler:  sv.Handler(),
		Streams:  4,
		Duration: 400 * time.Millisecond,
		Rate:     40,
		SLO:      Thresholds{P99LatencySeconds: 5, MaxShedRate: 0.5, MinAvailability: 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Classes) != 2 {
		t.Fatalf("classes = %+v", rep.Classes)
	}
	for _, c := range rep.Classes {
		if c.Streams != 2 {
			t.Errorf("class %s has %d streams, want 2", c.Class, c.Streams)
		}
		if c.Requests == 0 {
			t.Errorf("class %s sent no requests", c.Class)
		}
		if c.Errors != 0 {
			t.Errorf("class %s had %d errors", c.Class, c.Errors)
		}
		if c.Periods == 0 {
			t.Errorf("class %s cut no periods", c.Class)
		}
		if c.P99 <= 0 {
			t.Errorf("class %s p99 = %g, want > 0", c.Class, c.P99)
		}
	}
	if rep.Total.Requests == 0 || rep.Total.Throughput <= 0 {
		t.Fatalf("total = %+v", rep.Total)
	}
	if rep.Violated() {
		t.Fatalf("violations under generous thresholds: %v", rep.Violations)
	}
	// The registry saw the ingest: offered lines were counted.
	if got := reg.Snapshot().Value("serve_ingest_offered_lines_total"); got == 0 {
		t.Error("server registry did not count offered lines")
	}
	// Cleanup=false left the streams for the server's Shutdown.
	if sv.StreamCount() != 4 {
		t.Errorf("stream count = %d, want 4", sv.StreamCount())
	}
}

// TestDriftInjection runs the drift scenario end to end in process:
// every stream flips its regime mid-run and the detector must report
// the change point within the window on all of them, with no false
// alarms and no SLO violations.
func TestDriftInjection(t *testing.T) {
	sv := inprocServer(t, serve.Config{})
	rep, err := Run(context.Background(), Config{
		Handler:        sv.Handler(),
		Streams:        4,
		Duration:       2 * time.Second,
		Rate:           48, // 12 batches/s per stream, 3 periods each
		DriftFlipAfter: 15,
		DriftWindow:    20,
		SLO:            Thresholds{P99LatencySeconds: 5, MaxShedRate: 0.5, MinAvailability: 0.99},
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rep.Drift
	if d == nil {
		t.Fatal("drift report missing")
	}
	if d.Streams != 4 || d.Detected != 4 || d.Undetected != 0 || d.FalseAlarms != 0 {
		t.Fatalf("drift report = %+v", d)
	}
	if d.MaxLag > d.Window {
		t.Fatalf("max lag %d over window %d", d.MaxLag, d.Window)
	}
	for _, e := range d.Entries {
		if e.Generation != 2 {
			t.Errorf("stream %s ended at generation %d, want 2 (%+v)", e.ID, e.Generation, e)
		}
	}
	if rep.Violated() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if !strings.Contains(rep.Format(), "drift: flip@15") {
		t.Errorf("report format lacks the drift line:\n%s", rep.Format())
	}
}

// TestSLOGateViolation pins the -slo gating path: an impossible p99
// threshold must produce a violated report.
func TestSLOGateViolation(t *testing.T) {
	sv := inprocServer(t, serve.Config{})
	rep, err := Run(context.Background(), Config{
		Handler:  sv.Handler(),
		Streams:  2,
		Duration: 200 * time.Millisecond,
		Rate:     20,
		SLO:      Thresholds{P99LatencySeconds: 1e-9},
		Cleanup:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Violated() {
		t.Fatalf("report not violated under 1ns p99 threshold: %+v", rep.Total)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "p99") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations %v do not mention p99", rep.Violations)
	}
	if sv.StreamCount() != 0 {
		t.Errorf("cleanup left %d streams", sv.StreamCount())
	}
}

func TestTracePropagationFromLoad(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{Capacity: 1024})
	sv := inprocServer(t, serve.Config{Tracer: tr})
	rep, err := Run(context.Background(), Config{
		Handler:     sv.Handler(),
		Streams:     2,
		Duration:    300 * time.Millisecond,
		Rate:        30,
		TraceSample: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Requests == 0 {
		t.Fatal("no requests sent")
	}
	if got := len(tr.Summaries(0)); got == 0 {
		t.Fatal("no traces recorded despite TraceSample=1")
	}
}

func TestReportFormat(t *testing.T) {
	rep := Report{
		Duration: time.Second,
		Classes: []ClassReport{{
			Class: "text", Streams: 2, Requests: 100, P50: 0.001, P95: 0.01, P99: 0.6,
			Throughput: 100, Availability: 1,
		}},
		Total:      ClassReport{Class: "total", Streams: 2, Requests: 100, Availability: 1},
		Violations: []string{"text: p99 600.0ms over threshold 500.0ms"},
	}
	out := rep.Format()
	for _, want := range []string{"bbload report", "text", "total", "SLO VIOLATION", "p99"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q:\n%s", want, out)
		}
	}
}

// TestRunNamesFailedRequests pins the report's failure sample: a
// server that refuses one stream's events with 409 must see that
// stream and status named in the report, and the sample stays bounded.
func TestRunNamesFailedRequests(t *testing.T) {
	stub := http.NewServeMux()
	stub.HandleFunc("POST /v1/streams", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusCreated)
	})
	stub.HandleFunc("POST /v1/streams/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		if r.PathValue("id") == "load-text-1" {
			http.Error(w, `{"error":"stream conflict"}`, http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"lines":4,"periods":3}`))
	})
	rep, err := Run(context.Background(), Config{
		Handler:  stub,
		Streams:  2,
		Duration: 500 * time.Millisecond,
		Rate:     40,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Errors == 0 || len(rep.Failures) == 0 {
		t.Fatalf("no failures recorded: total %+v, failures %v", rep.Total, rep.Failures)
	}
	if len(rep.Failures) > maxFailures {
		t.Errorf("failure sample holds %d entries, cap %d", len(rep.Failures), maxFailures)
	}
	for _, f := range rep.Failures {
		if f.Stream != "load-text-1" || f.Status != http.StatusConflict || !strings.Contains(f.Body, "stream conflict") {
			t.Errorf("failure %+v, want load-text-1 with 409 and its body", f)
		}
	}
	if out := rep.Format(); !strings.Contains(out, "failed: load-text-1: status 409") {
		t.Errorf("report does not name the failed stream:\n%s", out)
	}
}

// TestCleanupAfterCancel pins teardown on interrupt: a run cancelled
// mid-load against a real socket must still delete every stream it
// created.
func TestCleanupAfterCancel(t *testing.T) {
	sv := inprocServer(t, serve.Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	_, err := Run(ctx, Config{
		BaseURL:  ts.URL,
		Streams:  4,
		Duration: 5 * time.Second,
		Rate:     40,
		Cleanup:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := sv.StreamCount(); n != 0 {
		t.Fatalf("cleanup left %d streams after cancel", n)
	}
}
