package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"github.com/blackbox-rt/modelgen/internal/obs"
)

// learnableFeed builds n text-format periods for tasks t1/t2 with one
// message between them, starting at the given base time.
func learnableFeed(base int64, n int) string {
	var sb strings.Builder
	for k := int64(0); k < int64(n); k++ {
		at := base + k*1000
		fmt.Fprintf(&sb, "exec t1 %d %d\n", at, at+100)
		fmt.Fprintf(&sb, "msg m1 %d %d\n", at+100, at+150)
		fmt.Fprintf(&sb, "exec t2 %d %d\n", at+200, at+300)
		sb.WriteString("period\n")
	}
	return sb.String()
}

// waitLearned polls stats until the stream has learned n periods.
func waitLearned(t *testing.T, c *client, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.stats(id).PeriodsLearned >= n {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("stream %s did not learn %d periods in time", id, n)
}

// TestTraceSpanTreeEndToEnd pins the tentpole acceptance path: a
// traceparent-carrying /events request yields a span tree at
// /debug/traces covering ingest → period_cut → learn_period → engine
// phases, and the ingest-latency histogram carries an exemplar that
// resolves to the same trace.
func TestTraceSpanTreeEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.TracerConfig{})
	sv := New(Config{Registry: reg, Tracer: tr})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	c.createStream(CreateStreamRequest{ID: "traced", Tasks: []string{"t1", "t2"}})

	const traceID = "0af7651916cd43dd8448eb211c80319c"
	req, err := http.NewRequest("POST", ts.URL+"/v1/streams/traced/events",
		strings.NewReader(learnableFeed(0, 3)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("traceparent", "00-"+traceID+"-b7ad6b7169203331-01")
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("events: %d", resp.StatusCode)
	}
	if tp := resp.Header.Get("traceparent"); !strings.Contains(tp, traceID) {
		t.Fatalf("response traceparent %q does not continue trace %s", tp, traceID)
	}
	waitLearned(t, c, "traced", 3)

	rsp, body := c.do("GET", "/debug/traces?trace="+traceID, nil)
	if rsp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces: %d %s", rsp.StatusCode, body)
	}
	tree := string(body)
	for _, span := range []string{"ingest", "period_cut", "learn_period", "candidates", "generalize", "postprocess"} {
		if !strings.Contains(tree, `"`+span+`"`) {
			t.Errorf("span tree missing %q:\n%s", span, tree)
		}
	}

	// The latency histogram must carry an exemplar resolving to the
	// same trace.
	m := reg.Snapshot()["serve_ingest_latency_seconds"]
	if m.Count < 3 {
		t.Fatalf("latency histogram count = %d, want >= 3", m.Count)
	}
	found := false
	for _, b := range m.Buckets {
		if b.Exemplar != nil && b.Exemplar.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("no latency bucket exemplar resolves to trace %s", traceID)
	}
}

// TestIngestWithoutTraceHeaderStillTraces: with a tracer configured
// at full sampling, a plain request gets a server-started trace and
// the response announces it.
func TestIngestWithoutTraceHeaderStillTraces(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{})
	sv := New(Config{Tracer: tr})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "s", Tasks: []string{"t1", "t2"}})

	resp, _ := c.do("POST", "/v1/streams/s/events", []byte(learnableFeed(0, 1)))
	tp := resp.Header.Get("traceparent")
	sc, ok := obs.ParseTraceparent(tp)
	if !ok {
		t.Fatalf("response traceparent %q does not parse", tp)
	}
	if got := tr.Spans(sc.TraceID); len(got) == 0 {
		t.Fatalf("announced trace %s has no spans", sc.TraceID)
	}
}

func TestDebugStreamsEndpoint(t *testing.T) {
	reg := obs.NewRegistry()
	sv := New(Config{Registry: reg, CheckpointDir: t.TempDir(), CheckpointEvery: 1})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	c.createStream(CreateStreamRequest{ID: "b", Tasks: []string{"t1", "t2"}})
	c.createStream(CreateStreamRequest{ID: "a", Tasks: []string{"t1", "t2"}})
	c.feed("a", learnableFeed(0, 2))
	waitLearned(t, c, "a", 2)

	resp, body := c.do("GET", "/debug/streams", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/streams: %d %s", resp.StatusCode, body)
	}
	var dbg DebugStreamsResponse
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Streams) != 2 || dbg.Streams[0].ID != "a" || dbg.Streams[1].ID != "b" {
		t.Fatalf("streams = %+v", dbg.Streams)
	}
	a := dbg.Streams[0]
	if a.LastPeriod != 2 || a.PeriodsCut != 2 {
		t.Errorf("a = %+v, want last_period=2 periods_cut=2", a)
	}
	if a.LiveHyps < 1 {
		t.Errorf("a.live_hypotheses = %d, want >= 1", a.LiveHyps)
	}
	if a.QueueCap == 0 {
		t.Errorf("a.queue_cap = 0")
	}
	// CheckpointEvery=1 means stream a has checkpointed by now.
	if a.CheckpointAgeSeconds <= 0 {
		t.Errorf("a.checkpoint_age_seconds = %g, want > 0", a.CheckpointAgeSeconds)
	}
	if b := dbg.Streams[1]; b.LastPeriod != 0 || b.CheckpointAgeSeconds != 0 {
		t.Errorf("idle b = %+v", b)
	}
}

// TestTruncatedCandumpLineSurfacesTypedError: satellite coverage for
// the parser error path — a truncated candump line must produce a 400
// carrying the typed can error, commit nothing, and leave the stream
// usable.
func TestTruncatedCandumpLineSurfacesTypedError(t *testing.T) {
	sv := New(Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "cd", Tasks: []string{"t1", "t2"}, BitRate: 500_000, PeriodUS: 1000})

	resp, body := c.do("POST", "/v1/streams/cd/events", []byte("(0.000150) can0\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated candump line: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "can: truncated log line") {
		t.Fatalf("error body %q does not carry the typed can error", body)
	}
	// Clone-and-commit: the failed batch left no state; a valid mixed
	// batch still parses from scratch.
	st := c.stats("cd")
	if st.PeriodsCut != 0 || st.Partial {
		t.Fatalf("failed batch leaked state: %+v", st)
	}
	var feed strings.Builder
	for k := int64(0); k < 3; k++ {
		base := k * 1000
		fmt.Fprintf(&feed, "exec t1 %d %d\n", base, base+100)
		fmt.Fprintf(&feed, "(0.%06d) can0 123#AA\n", base+150)
		fmt.Fprintf(&feed, "exec t2 %d %d\n", base+400, base+500)
	}
	feed.WriteString("period\n")
	if ir := c.feed("cd", feed.String()); ir.Periods != 3 {
		t.Fatalf("post-error feed cut %d periods, want 3", ir.Periods)
	}

	// After the converter has consumed frames, an error still names
	// one position: the line within the rejected batch.
	resp, body = c.do("POST", "/v1/streams/cd/events", []byte("(0.003150) can0 123#AA\n(0.003200) can0\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated candump line after frames: %d %s", resp.StatusCode, body)
	}
	if pos := regexp.MustCompile(`line \d+`).FindAllString(string(body), -1); len(pos) != 1 || pos[0] != "line 2" {
		t.Fatalf("error body %q names line positions %q, want only the batch's line 2", body, pos)
	}
}

// TestPartialTextLineSurfacesTypedError: a text directive missing
// fields (e.g. a line split across a client's buffer boundary) is a
// 400 with the typed trace error, not a silent drop.
func TestPartialTextLineSurfacesTypedError(t *testing.T) {
	sv := New(Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "tx", Tasks: []string{"t1", "t2"}})

	// A good line followed by a partial one: the whole batch must be
	// rejected atomically.
	resp, body := c.do("POST", "/v1/streams/tx/events", []byte("exec t1 0 100\nexec t2 200\n"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("partial text line: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "truncated event line") {
		t.Fatalf("error body %q does not carry the typed trace error", body)
	}
	st := c.stats("tx")
	if st.PeriodsCut != 0 || st.Partial {
		t.Fatalf("rejected batch leaked state: %+v", st)
	}
	// The same events, completed, are accepted afresh.
	if ir := c.feed("tx", "exec t1 0 100\nexec t2 200 300\nmsg m1 100 150\nperiod\n"); ir.Periods != 1 {
		t.Fatalf("post-error feed cut %d periods, want 1", ir.Periods)
	}
}

// BenchmarkServeIngest compares the ingest hot path with tracing
// disabled (nil tracer: every span call is a nil-safe no-op, zero
// added allocations — see obs.TestNilTracerZeroAlloc for the pinned
// guarantee) against full-sampling tracing.
func BenchmarkServeIngest(b *testing.B) {
	run := func(b *testing.B, tracer *obs.Tracer) {
		sv := New(Config{Tracer: tracer})
		s, err := sv.addStream(StreamInfo{ID: "bench", Tasks: []string{"t1", "t2"}}, nil, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		defer func() { s.close(); <-s.done }()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Monotone message occurrences into one open period: parse
			// work without queue or learner noise (tasks may run only
			// once per period, messages repeat freely).
			at := int64(i) * 1000
			lines := []string{fmt.Sprintf("msg m1 %d %d", at, at+50)}
			if _, _, err := s.ingest(lines, obs.SpanContext{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil-tracer", func(b *testing.B) { run(b, nil) })
	b.Run("traced", func(b *testing.B) { run(b, obs.NewTracer(obs.TracerConfig{Capacity: 1024})) })
}
