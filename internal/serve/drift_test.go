package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/obs"
)

// driftFeed renders n stationary text periods (t1 sends m1 to t2)
// starting at period index `from` so successive batches keep the
// clock monotonic.
func driftFeed(from, n int) string {
	var sb strings.Builder
	for k := 0; k < n; k++ {
		base := int64(from+k) * 1000
		fmt.Fprintf(&sb, "exec t1 %d %d\n", base, base+100)
		fmt.Fprintf(&sb, "msg m1 %d %d\n", base+150, base+200)
		fmt.Fprintf(&sb, "exec t2 %d %d\n", base+400, base+500)
		sb.WriteString("period\n")
	}
	return sb.String()
}

// flipFeed renders n post-change periods: t1 runs alone, the message
// and t2 are gone.
func flipFeed(from, n int) string {
	var sb strings.Builder
	for k := 0; k < n; k++ {
		base := int64(from+k) * 1000
		fmt.Fprintf(&sb, "exec t1 %d %d\nperiod\n", base, base+100)
	}
	return sb.String()
}

func (c *client) drift(id string) (DriftResponse, []byte) {
	c.t.Helper()
	resp, body := c.do("GET", "/v1/streams/"+id+"/drift", nil)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("drift %s: %d %s", id, resp.StatusCode, body)
	}
	var dr DriftResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		c.t.Fatalf("drift %s: %v", id, err)
	}
	return dr, body
}

func driftEnabled() *DriftOptions { return &DriftOptions{Enabled: true} }

// TestDriftDetectionEndToEnd drives a drift-enabled stream through a
// regime change over HTTP and checks the full observability surface:
// the /drift endpoint, /debug/streams, and the modelgen_drift_* and
// serve_* series.
func TestDriftDetectionEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	sv := New(Config{Registry: reg})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "d1", Tasks: []string{"t1", "t2"}, Drift: driftEnabled()})

	const flipAt = 20
	c.feed("d1", driftFeed(0, flipAt))
	waitLearned(t, c, "d1", flipAt)

	dr, _ := c.drift("d1")
	if !dr.Enabled || dr.State == nil {
		t.Fatalf("drift response = %+v", dr)
	}
	if dr.State.Generation != 1 || !dr.State.Converged || dr.State.Alarms != 0 {
		t.Fatalf("stationary state = %+v", dr.State)
	}

	// Enough post-flip periods for the alarm (~4 failures) plus the
	// generation-2 re-convergence streak.
	c.feed("d1", flipFeed(flipAt, 15))
	waitLearned(t, c, "d1", flipAt+15)

	dr, _ = c.drift("d1")
	st := dr.State
	if st.Alarms != 1 || st.Generation != 2 {
		t.Fatalf("post-flip state = %+v", st)
	}
	if st.LastChangePoint != flipAt+1 {
		t.Errorf("change point %d, want %d", st.LastChangePoint, flipAt+1)
	}
	if lag := st.LastAlarmPeriod - st.LastChangePoint; lag < 0 || lag > 20 {
		t.Errorf("detection lag %d periods, want within 20", lag)
	}
	if len(st.Archived) != 1 || st.Archived[0].Generation != 1 {
		t.Errorf("archived = %+v", st.Archived)
	}
	// Generation 2 re-converges on the new regime.
	if !st.Converged {
		t.Error("generation 2 never re-converged")
	}

	// /debug/streams mirrors the monitor's headline numbers.
	_, body := c.do("GET", "/debug/streams", nil)
	var dbg DebugStreamsResponse
	if err := json.Unmarshal(body, &dbg); err != nil {
		t.Fatal(err)
	}
	if len(dbg.Streams) != 1 {
		t.Fatalf("streams = %+v", dbg.Streams)
	}
	d := dbg.Streams[0]
	if d.Generation != 2 || d.LastChangePoint != int64(flipAt+1) {
		t.Errorf("debug entry = %+v", d)
	}
	if d.Streak == 0 {
		t.Error("debug streak = 0 after re-convergence")
	}

	// Metrics: per-stream drift series plus the service-wide counters
	// and the detection-lag histogram.
	snap := reg.Snapshot()
	if m := snap[obs.SeriesName(obs.MetricDriftGeneration, "stream", "d1")]; m.Value != 2 {
		t.Errorf("generation gauge = %+v", m)
	}
	if m := snap[obs.SeriesName(obs.MetricDriftAlarms, "stream", "d1")]; m.Value != 1 {
		t.Errorf("alarms counter = %+v", m)
	}
	if m := snap["serve_periods_learned_total"]; m.Value != int64(flipAt+15) {
		t.Errorf("periods learned = %+v", m)
	}
	if m := snap["serve_drift_alarm_periods_total"]; m.Value != 1 {
		t.Errorf("alarm periods = %+v", m)
	}
	if m := snap[obs.MetricDriftLag]; m.Count != 1 {
		t.Errorf("lag histogram = %+v", m)
	}
	// Satellite: the runtime gauges ride along on every serve registry.
	if m := snap["go_goroutines"]; m.Value < 1 {
		t.Errorf("go_goroutines = %+v", m)
	}
}

// TestDriftForcedAlarmOnLearnerDeath: a period no hypothesis can
// explain raises a forced change point and a fresh generation gets to
// replay it; when the period is inherently infeasible (a message with
// no possible sender) the replay fails too and the stream dies — but
// the alarm and the archived generation-1 model survive for diagnosis.
func TestDriftForcedAlarmOnLearnerDeath(t *testing.T) {
	sv := New(Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "kill", Tasks: []string{"t1", "t2"}, Drift: driftEnabled()})

	c.feed("kill", driftFeed(0, 15))
	waitLearned(t, c, "kill", 15)

	base := int64(15) * 1000
	bad := fmt.Sprintf("msg m1 %d %d\nexec t1 %d %d\nexec t2 %d %d\nperiod\n",
		base, base+1, base+100, base+200, base+300, base+400)
	resp, _ := c.do("POST", "/v1/streams/kill/events", []byte(bad))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bad period ingest: %d", resp.StatusCode)
	}

	deadline := 200
	var st StatsResponse
	for ; deadline > 0; deadline-- {
		if st = c.stats("kill"); st.Err != "" {
			break
		}
	}
	if !strings.Contains(st.Err, "hypothesis") {
		t.Fatalf("stream err = %q, want the sticky no-hypothesis error", st.Err)
	}
	dr, _ := c.drift("kill")
	if dr.State.Alarms != 1 || dr.State.Generation != 2 {
		t.Fatalf("state after forced alarm = %+v", dr.State)
	}
	if len(dr.State.Archived) != 1 {
		t.Fatalf("archived = %+v", dr.State.Archived)
	}
}

// TestDriftDisabledStream: streams without the option answer
// {"enabled": false} and expose no drift series.
func TestDriftDisabledStream(t *testing.T) {
	reg := obs.NewRegistry()
	sv := New(Config{Registry: reg})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "plain", Tasks: []string{"t1", "t2"}})
	c.feed("plain", driftFeed(0, 3))
	waitLearned(t, c, "plain", 3)

	dr, _ := c.drift("plain")
	if dr.Enabled || dr.State != nil {
		t.Fatalf("drift response = %+v", dr)
	}
	if _, ok := reg.Snapshot()[obs.SeriesName(obs.MetricDriftGeneration, "stream", "plain")]; ok {
		t.Error("drift series registered on a drift-less stream")
	}
}

// TestDriftVerifySpanUnderLearnPeriod: on a traced drift-enabled
// stream, every learn_period span has exactly one drift_verify child
// (the monitor's check of that period); a drift-less stream has none.
func TestDriftVerifySpanUnderLearnPeriod(t *testing.T) {
	tr := obs.NewTracer(obs.TracerConfig{})
	sv := New(Config{Tracer: tr})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "watched", Tasks: []string{"t1", "t2"}, Drift: driftEnabled()})
	c.createStream(CreateStreamRequest{ID: "plain", Tasks: []string{"t1", "t2"}})

	// spans feeds three periods and returns the spans of the trace the
	// server started for the request.
	spans := func(id string) []obs.SpanRecord {
		t.Helper()
		resp, _ := c.do("POST", "/v1/streams/"+id+"/events", []byte(driftFeed(0, 3)))
		sc, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
		if !ok {
			t.Fatalf("events %s: no traceparent in the response", id)
		}
		waitLearned(t, c, id, 3)
		return tr.Spans(sc.TraceID)
	}
	children := func(recs []obs.SpanRecord, parent obs.SpanID, name string) int {
		n := 0
		for _, r := range recs {
			if r.Parent == parent && r.Name == name {
				n++
			}
		}
		return n
	}

	recs := spans("watched")
	learns := 0
	for _, r := range recs {
		if r.Name != "learn_period" {
			continue
		}
		learns++
		if n := children(recs, r.SpanID, obs.PhaseDriftVerify); n != 1 {
			t.Errorf("learn_period span %v has %d drift_verify children, want 1", r.SpanID, n)
		}
	}
	if learns != 3 {
		t.Fatalf("trace has %d learn_period spans, want 3", learns)
	}

	for _, r := range spans("plain") {
		if r.Name == obs.PhaseDriftVerify {
			t.Fatalf("drift-less stream emitted a drift_verify span: %+v", r)
		}
	}
}

// TestDriftCheckpointRestart is the satellite round-trip guarantee:
// drift-monitor state survives checkpoint/restart bit-identically, and
// a server restarted mid-detection finishes the detection exactly like
// one that never restarted.
func TestDriftCheckpointRestart(t *testing.T) {
	// The uninterrupted twin.
	sv1 := New(Config{CheckpointDir: t.TempDir()})
	ts1 := httptest.NewServer(sv1.Handler())
	defer ts1.Close()
	c1 := newClient(t, ts1)

	dir := t.TempDir()
	sv2 := New(Config{CheckpointDir: dir})
	ts2 := httptest.NewServer(sv2.Handler())
	c2 := newClient(t, ts2)

	req := CreateStreamRequest{ID: "rt", Tasks: []string{"t1", "t2"}, Drift: driftEnabled()}
	c1.createStream(req)
	c2.createStream(req)

	const flipAt = 20
	feedBoth := func(lines string, learned int) {
		c1.feed("rt", lines)
		c2.feed("rt", lines)
		waitLearned(t, c1, "rt", learned)
		waitLearned(t, c2, "rt", learned)
	}
	feedBoth(driftFeed(0, flipAt), flipAt)
	// Two flipped periods: the detector accumulator is mid-charge, the
	// hardest state to round-trip.
	feedBoth(flipFeed(flipAt, 2), flipAt+2)

	resp, _ := c2.do("POST", "/v1/streams/rt/compact", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d", resp.StatusCode)
	}
	_, before := c2.drift("rt")

	if err := sv2.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	ts2.Close()

	sv2 = New(Config{CheckpointDir: dir})
	if n, err := sv2.RestoreFromDir(); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	ts2 = httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	c2 = newClient(t, ts2)

	_, after := c2.drift("rt")
	if !bytes.Equal(before, after) {
		t.Fatalf("drift state changed across restart:\n%s\n%s", before, after)
	}

	// Finish the detection on both servers: the restarted monitor must
	// alarm at the same period with the same change point.
	feedBoth(flipFeed(flipAt+2, 8), flipAt+10)
	dr1, raw1 := c1.drift("rt")
	_, raw2 := c2.drift("rt")
	if !bytes.Equal(raw1, raw2) {
		t.Fatalf("restarted server diverged:\n%s\n%s", raw1, raw2)
	}
	if dr1.State.Alarms != 1 || dr1.State.Generation != 2 || dr1.State.LastChangePoint != flipAt+1 {
		t.Fatalf("final state = %+v", dr1.State)
	}
}
