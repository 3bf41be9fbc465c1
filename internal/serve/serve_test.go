package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/blackbox-rt/modelgen/internal/can"
	"github.com/blackbox-rt/modelgen/internal/conformance"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// client wraps the raw HTTP calls the tests make against a test
// server.
type client struct {
	t    *testing.T
	base string
	c    *http.Client
}

func newClient(t *testing.T, ts *httptest.Server) *client {
	return &client{t: t, base: ts.URL, c: ts.Client()}
}

func (c *client) do(method, path string, body []byte) (*http.Response, []byte) {
	c.t.Helper()
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	resp, err := c.c.Do(req)
	if err != nil {
		c.t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, out
}

func (c *client) createStream(req CreateStreamRequest) StreamInfo {
	c.t.Helper()
	body, _ := json.Marshal(req)
	resp, out := c.do("POST", "/v1/streams", body)
	if resp.StatusCode != http.StatusCreated {
		c.t.Fatalf("create stream: %d %s", resp.StatusCode, out)
	}
	var info StreamInfo
	if err := json.Unmarshal(out, &info); err != nil {
		c.t.Fatal(err)
	}
	return info
}

func (c *client) feed(id string, lines string) IngestResponse {
	c.t.Helper()
	resp, out := c.do("POST", "/v1/streams/"+id+"/events", []byte(lines))
	if resp.StatusCode != http.StatusAccepted {
		c.t.Fatalf("feed %s: %d %s", id, resp.StatusCode, out)
	}
	var ir IngestResponse
	if err := json.Unmarshal(out, &ir); err != nil {
		c.t.Fatal(err)
	}
	return ir
}

func (c *client) model(id string) ModelResponse {
	c.t.Helper()
	resp, out := c.do("GET", "/v1/streams/"+id+"/model", nil)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("model %s: %d %s", id, resp.StatusCode, out)
	}
	var m ModelResponse
	if err := json.Unmarshal(out, &m); err != nil {
		c.t.Fatal(err)
	}
	return m
}

func (c *client) stats(id string) StatsResponse {
	c.t.Helper()
	resp, out := c.do("GET", "/v1/streams/"+id+"/stats", nil)
	if resp.StatusCode != http.StatusOK {
		c.t.Fatalf("stats %s: %d %s", id, resp.StatusCode, out)
	}
	var sr StatsResponse
	if err := json.Unmarshal(out, &sr); err != nil {
		c.t.Fatal(err)
	}
	return sr
}

// batchTables runs the batch learner over the trace and returns the
// hypothesis tables in result order — the pinned derivation served
// models are compared against.
func batchTables(t *testing.T, tr *trace.Trace, opt learner.Options) ([]string, string) {
	t.Helper()
	res, err := learner.Learn(tr, opt)
	if err != nil {
		t.Fatal(err)
	}
	var tables []string
	for _, d := range res.Hypotheses {
		tables = append(tables, d.Table())
	}
	return tables, res.LUB.Table()
}

func assertModelEquals(t *testing.T, m ModelResponse, tables []string, lub string) {
	t.Helper()
	if len(m.Hypotheses) != len(tables) {
		t.Fatalf("served %d hypotheses, batch %d", len(m.Hypotheses), len(tables))
	}
	for i := range tables {
		if m.Hypotheses[i] != tables[i] {
			t.Errorf("served hypothesis %d differs from batch:\n%s\nvs\n%s", i, m.Hypotheses[i], tables[i])
		}
	}
	if m.LUB != lub {
		t.Errorf("served LUB differs from batch:\n%s\nvs\n%s", m.LUB, lub)
	}
}

// TestLifecycleFigure2 is the full happy path: create a stream, feed
// the paper's Figure-2 trace line by line, read a model identical to
// the batch derivation, checkpoint over HTTP, restart the server from
// the checkpoint directory, and read the identical model again.
func TestLifecycleFigure2(t *testing.T) {
	dir := t.TempDir()
	sv := New(Config{CheckpointDir: dir})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	tr := trace.PaperFigure2()
	info := c.createStream(CreateStreamRequest{ID: "fig2", Tasks: tr.Tasks})
	if info.ID != "fig2" {
		t.Fatalf("created stream %q", info.ID)
	}

	// One request per line, plus a final "period" to close the last
	// period (the text format has no trailing delimiter).
	lines := strings.Split(strings.TrimRight(tr.String(), "\n"), "\n")
	lines = append(lines, "period")
	periods := 0
	for _, line := range lines {
		periods += c.feed("fig2", line).Periods
	}
	if periods != len(tr.Periods) {
		t.Fatalf("feed cut %d periods, trace has %d", periods, len(tr.Periods))
	}

	tables, lub := batchTables(t, tr, learner.Options{})
	assertModelEquals(t, c.model("fig2"), tables, lub)

	st := c.stats("fig2")
	if st.PeriodsLearned != len(tr.Periods) || st.Err != "" || st.Partial {
		t.Fatalf("stats after feed: %+v", st)
	}

	resp, out := c.do("POST", "/v1/streams/fig2/compact", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d %s", resp.StatusCode, out)
	}

	// A second server process over the same checkpoint directory
	// serves the identical model.
	sv2 := New(Config{CheckpointDir: dir})
	if n, err := sv2.RestoreFromDir(); err != nil || n != 1 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	c2 := newClient(t, ts2)
	assertModelEquals(t, c2.model("fig2"), tables, lub)
	if st := c2.stats("fig2"); st.PeriodsLearned != len(tr.Periods) {
		t.Fatalf("restored stream learned %d periods, want %d", st.PeriodsLearned, len(tr.Periods))
	}

	// DOT export of the restored model renders the LUB graph.
	resp, out = c2.do("GET", "/v1/streams/fig2/model?format=dot", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), "digraph") {
		t.Fatalf("dot export: %d %q", resp.StatusCode, out)
	}

	// DELETE drains and removes the stream and its checkpoint.
	resp, _ = c2.do("DELETE", "/v1/streams/fig2", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if resp, _ = c2.do("GET", "/v1/streams/fig2/model", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("model after delete: %d", resp.StatusCode)
	}
	sv3 := New(Config{CheckpointDir: dir})
	if n, err := sv3.RestoreFromDir(); err != nil || n != 0 {
		t.Fatalf("restore after delete: n=%d err=%v", n, err)
	}
}

// TestBackpressureShedsAtomically: a batch that does not fit in the
// ingest queue is rejected with 429 + Retry-After and leaves NO state
// behind — resending the identical batch in smaller pieces converges
// to exactly the batch-learner model.
func TestBackpressureShedsAtomically(t *testing.T) {
	sv := New(Config{QueueDepth: 2})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	tr := trace.PaperFigure2()
	c.createStream(CreateStreamRequest{ID: "bp", Tasks: tr.Tasks})

	// Ten copies of the trace in one request: at least 30 periods
	// against 2 queue slots — guaranteed shed, however fast the
	// consumer drains.
	var big strings.Builder
	for i := 0; i < 10; i++ {
		big.WriteString(tr.String())
		big.WriteString("period\n")
	}
	resp, out := c.do("POST", "/v1/streams/bp/events", []byte(big.String()))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: %d %s", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if st := c.stats("bp"); st.Shed != 1 || st.PeriodsCut != 0 || st.Partial {
		t.Fatalf("after shed: %+v", st)
	}

	// The identical content, drip-fed line by line, is accepted in
	// full: the shed left no parser residue to collide with.
	for _, line := range strings.Split(strings.TrimRight(big.String(), "\n"), "\n") {
		for {
			resp, _ := c.do("POST", "/v1/streams/bp/events", []byte(line))
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("drip feed: %d", resp.StatusCode)
			}
			time.Sleep(time.Millisecond)
		}
	}
	repeated := trace.New(tr.Tasks)
	for i := 0; i < 10; i++ {
		for _, p := range tr.Periods {
			cp := p.Clone()
			cp.Index = len(repeated.Periods)
			repeated.Periods = append(repeated.Periods, cp)
		}
	}
	tables, lub := batchTables(t, repeated, learner.Options{})
	assertModelEquals(t, c.model("bp"), tables, lub)
}

// TestConcurrentStreams: 16 streams fed concurrently (each by its own
// producer goroutine, in randomized-size chunks) all converge to the
// batch model. Run under -race this is the no-shared-learner-state
// proof; the goroutine count also returns to baseline after shutdown,
// proving per-stream owners do not leak.
func TestConcurrentStreams(t *testing.T) {
	before := runtime.NumGoroutine()
	reg := obs.NewRegistry()
	sv := New(Config{Registry: reg, QueueDepth: 64})
	ts := httptest.NewServer(sv.Handler())
	c := newClient(t, ts)

	tr := trace.PaperFigure2()
	lines := strings.Split(strings.TrimRight(tr.String(), "\n"), "\n")
	lines = append(lines, "period")
	tables, lub := batchTables(t, tr, learner.Options{Bound: 4})

	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c%02d", i)
		c.createStream(CreateStreamRequest{ID: id, Tasks: tr.Tasks,
			Options: LearnOptions{Bound: 4}})
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			// Chunk size varies per stream so the interleavings differ.
			chunk := 1 + i%5
			for at := 0; at < len(lines); at += chunk {
				end := at + chunk
				if end > len(lines) {
					end = len(lines)
				}
				body := strings.Join(lines[at:end], "\n")
				for {
					resp, out := c.do("POST", "/v1/streams/"+id+"/events", []byte(body))
					if resp.StatusCode == http.StatusAccepted {
						break
					}
					if resp.StatusCode != http.StatusTooManyRequests {
						errs <- fmt.Errorf("stream %s: %d %s", id, resp.StatusCode, out)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(i, id)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("c%02d", i)
		assertModelEquals(t, c.model(id), tables, lub)
	}

	// The metrics endpoint exposes the per-stream series.
	resp, out := c.do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	if !strings.Contains(string(out), `serve_periods_total{stream="c00"}`) {
		t.Error("metrics missing per-stream periods series")
	}
	if !strings.Contains(string(out), "serve_streams 16") {
		t.Error("metrics missing streams gauge")
	}

	// Shutdown drains every owner; the goroutine count returns to the
	// pre-server baseline (allowing the httptest teardown a moment).
	ts.Close()
	if err := sv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked: %d before, %d after\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestCandumpMixedStream: a stream created with a bit rate and a
// period grid accepts interleaved text task events and raw candump
// frames, cuts periods on the grid, and learns the same model as the
// batch learner over the equivalent hand-built trace.
func TestCandumpMixedStream(t *testing.T) {
	sv := New(Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	const bitRate = 500_000
	c.createStream(CreateStreamRequest{
		ID: "canmix", Tasks: []string{"t1", "t2"},
		BitRate: bitRate, PeriodUS: 1000,
	})

	// Three grid periods: t1 runs, sends frame 0x123, t2 runs.
	var feed strings.Builder
	conv, err := can.NewStreamConverter(bitRate)
	if err != nil {
		t.Fatal(err)
	}
	b := trace.NewBuilder([]string{"t1", "t2"})
	for k := int64(0); k < 3; k++ {
		base := k * 1000
		fmt.Fprintf(&feed, "exec t1 %d %d\n", base, base+100)
		frame := fmt.Sprintf("(0.%06d) can0 123#AA", base+150)
		feed.WriteString(frame + "\n")
		evs, err := conv.Line(frame)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&feed, "exec t2 %d %d\n", base+400, base+500)
		b.StartPeriod()
		b.Exec("t1", base, base+100)
		b.Exec("t2", base+400, base+500)
		b.Msg(evs[0].Name, evs[0].Time, evs[1].Time)
	}
	feed.WriteString("period\n")

	ir := c.feed("canmix", feed.String())
	if ir.Periods != 3 {
		t.Fatalf("grid cut %d periods, want 3", ir.Periods)
	}
	want := b.MustBuild()
	tables, lub := batchTables(t, want, learner.Options{})
	assertModelEquals(t, c.model("canmix"), tables, lub)
}

// TestRawEventsOnGrid: raw start/end/rise/fall lines cut on a
// period_us grid like exec lines do. A pair straddling a grid boundary
// is a 400 wrapping ErrCrossingPeriod that leaves the stream as it
// was, so the same stream then learns the batch model of the clean
// feed; and a timestamp far past the grid cuts at once.
func TestRawEventsOnGrid(t *testing.T) {
	sv := New(Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	c.createStream(CreateStreamRequest{ID: "rawgrid", Tasks: []string{"t1", "t2"}, PeriodUS: 1000})

	// t2 starts in the first grid slot and ends in the second.
	resp, out := c.do("POST", "/v1/streams/rawgrid/events",
		[]byte("start t1 0\nend t1 100\nstart t2 900\nend t2 1100\n"))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(out), trace.ErrCrossingPeriod.Error()) {
		t.Fatalf("straddling pair: %d %s, want 400 with %q", resp.StatusCode, out, trace.ErrCrossingPeriod)
	}
	if st := c.stats("rawgrid"); st.PeriodsCut != 0 || st.Partial {
		t.Fatalf("rejected batch left state: cut %d, partial %v", st.PeriodsCut, st.Partial)
	}

	var feed strings.Builder
	b := trace.NewBuilder([]string{"t1", "t2"})
	for k := int64(0); k < 3; k++ {
		base := 5000 + k*1000
		fmt.Fprintf(&feed, "start t1 %d\nend t1 %d\nrise m1 %d\nfall m1 %d\nstart t2 %d\nend t2 %d\n",
			base, base+100, base+150, base+200, base+400, base+500)
		b.StartPeriod()
		b.Exec("t1", base, base+100)
		b.Msg("m1", base+150, base+200)
		b.Exec("t2", base+400, base+500)
	}
	feed.WriteString("period\n")
	if ir := c.feed("rawgrid", feed.String()); ir.Periods != 3 {
		t.Fatalf("grid cut %d periods, want 3", ir.Periods)
	}
	tables, lub := batchTables(t, b.MustBuild(), learner.Options{})
	assertModelEquals(t, c.model("rawgrid"), tables, lub)

	if ir := c.feed("rawgrid", "exec t1 1000000000000000000 1000000000000000001\nperiod\n"); ir.Periods != 1 {
		t.Fatalf("far timestamp cut %d periods, want 1", ir.Periods)
	}
}

// TestDeadStreamReports409: a period the learner cannot explain kills
// the stream's learner; the API reports the sticky error on stats and
// answers 409 on model reads and further feeds, while other streams
// are unaffected.
func TestDeadStreamReports409(t *testing.T) {
	sv := New(Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	c.createStream(CreateStreamRequest{ID: "doomed", Tasks: []string{"t1", "t2"}})
	c.createStream(CreateStreamRequest{ID: "healthy", Tasks: []string{"t1", "t2"}})

	// A message with no surrounding executions has no candidate
	// sender/receiver pairs: unexplainable, the hypothesis set empties.
	c.feed("doomed", "msg m1 0 1\nperiod\n")
	st := c.stats("doomed")
	if st.Err == "" {
		t.Fatal("dead stream reports no error")
	}
	if resp, _ := c.do("GET", "/v1/streams/doomed/model", nil); resp.StatusCode != http.StatusConflict {
		t.Fatalf("model on dead stream: %d", resp.StatusCode)
	}
	if resp, _ := c.do("POST", "/v1/streams/doomed/events", []byte("exec t1 0 5\nperiod")); resp.StatusCode != http.StatusConflict {
		t.Fatalf("feed on dead stream: %d", resp.StatusCode)
	}

	c.feed("healthy", "exec t1 0 5\nmsg m1 6 7\nexec t2 9 12\nperiod\n")
	if resp, _ := c.do("GET", "/v1/streams/healthy/model", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy stream model: %d", resp.StatusCode)
	}
}

// TestAPIRejections covers the 4xx surface: unknown streams, bad
// bodies, duplicate and invalid IDs, parse errors, and
// ErrVerifyUnavailable surfacing as 409.
func TestAPIRejections(t *testing.T) {
	sv := New(Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)

	for _, p := range []string{"/v1/streams/none/model", "/v1/streams/none/stats"} {
		if resp, _ := c.do("GET", p, nil); resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", p, resp.StatusCode)
		}
	}
	if resp, _ := c.do("POST", "/v1/streams/none/events", []byte("period")); resp.StatusCode != http.StatusNotFound {
		t.Error("events on unknown stream accepted")
	}
	if resp, _ := c.do("DELETE", "/v1/streams/none", nil); resp.StatusCode != http.StatusNotFound {
		t.Error("delete on unknown stream accepted")
	}
	if resp, _ := c.do("POST", "/v1/streams", []byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Error("malformed create body accepted")
	}
	body, _ := json.Marshal(CreateStreamRequest{ID: "bad id!", Tasks: []string{"t1"}})
	if resp, _ := c.do("POST", "/v1/streams", body); resp.StatusCode != http.StatusBadRequest {
		t.Error("invalid stream id accepted")
	}
	body, _ = json.Marshal(CreateStreamRequest{ID: "x", Tasks: nil})
	if resp, _ := c.do("POST", "/v1/streams", body); resp.StatusCode != http.StatusBadRequest {
		t.Error("empty task set accepted")
	}

	c.createStream(CreateStreamRequest{ID: "dup", Tasks: []string{"t1"}})
	body, _ = json.Marshal(CreateStreamRequest{ID: "dup", Tasks: []string{"t1"}})
	if resp, _ := c.do("POST", "/v1/streams", body); resp.StatusCode != http.StatusConflict {
		t.Error("duplicate stream id accepted")
	}

	// Parse errors are 400 and, thanks to clone-and-commit, leave the
	// stream fully usable.
	if resp, _ := c.do("POST", "/v1/streams/dup/events", []byte("exec t9 0 5")); resp.StatusCode != http.StatusBadRequest {
		t.Error("unknown task in feed accepted")
	}
	c.feed("dup", "exec t1 0 5\nperiod\n")
	if st := c.stats("dup"); st.PeriodsLearned != 1 {
		t.Errorf("stream unusable after rejected batch: %+v", st)
	}

	// Candump lines need a bit rate.
	if resp, _ := c.do("POST", "/v1/streams/dup/events", []byte("(1.0) can0 123#")); resp.StatusCode != http.StatusBadRequest {
		t.Error("candump line accepted on a text-only stream")
	}

	// VerifyResults without retained periods: Result's
	// ErrVerifyUnavailable sentinel becomes a 409, not a silent skip.
	c.createStream(CreateStreamRequest{ID: "verify", Tasks: []string{"t1", "t2"},
		Options: LearnOptions{VerifyResults: true}})
	c.feed("verify", "exec t1 0 5\nmsg m1 6 7\nexec t2 9 12\nperiod\n")
	if resp, _ := c.do("GET", "/v1/streams/verify/model", nil); resp.StatusCode != http.StatusConflict {
		t.Errorf("verify-without-retention model read: %d, want 409", resp.StatusCode)
	}
}

// TestLearnOptionLimits: learner options come from network peers, so
// none may size an allocation or a goroutine pool unchecked. A create
// request or an imported envelope that still carries a retired option
// ("workers", whatever its value, or "period_live_cap", in an
// envelope's options and its snapshot alike) is accepted and learns
// the same model as one without it; a huge retain_periods allocates
// its ring on demand and round-trips through export and import.
func TestLearnOptionLimits(t *testing.T) {
	sv := New(Config{})
	ts := httptest.NewServer(sv.Handler())
	defer ts.Close()
	c := newClient(t, ts)
	const feed = "exec t1 0 5\nmsg m1 6 7\nexec t2 9 12\nperiod\n"

	c.createStream(CreateStreamRequest{ID: "plain", Tasks: []string{"t1", "t2"}})
	c.feed("plain", feed)
	want := c.model("plain")
	for id, opt := range map[string]string{"many": `"workers":1099511627776`, "capped": `"period_live_cap":64`} {
		body := []byte(`{"id":"` + id + `","tasks":["t1","t2"],"options":{` + opt + `}}`)
		if resp, out := c.do("POST", "/v1/streams", body); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create with %s: %d %s, want 201", opt, resp.StatusCode, out)
		}
		c.feed(id, feed)
		if got := c.model(id); !reflect.DeepEqual(got.Hypotheses, want.Hypotheses) {
			t.Fatalf("model with %s %v, want %v", opt, got.Hypotheses, want.Hypotheses)
		}
	}

	c.createStream(CreateStreamRequest{ID: "ring", Tasks: []string{"t1", "t2"},
		Options: LearnOptions{RetainPeriods: 1 << 40, VerifyResults: true}})
	c.feed("ring", feed)
	before := c.model("ring")
	env, learned, err := sv.ExportStream("ring")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.ImportStream(env, learned); err != nil {
		t.Fatalf("import with huge retain_periods: %v", err)
	}
	if after := c.model("ring"); !reflect.DeepEqual(after.Hypotheses, before.Hypotheses) {
		t.Fatalf("imported model %v, want %v", after.Hypotheses, before.Hypotheses)
	}

	for _, retired := range []struct {
		key, value string
		inSnapshot bool
	}{
		{"workers", "1099511627776", false},
		{"period_live_cap", "64", true},
	} {
		env, _, err = sv.ExportStream("ring")
		if err != nil {
			t.Fatal(err)
		}
		if env, err = withRetiredOption(env, retired.key, retired.value, retired.inSnapshot); err != nil {
			t.Fatal(err)
		}
		if _, err := sv.ImportStream(env, learned); err != nil {
			t.Fatalf("import with a %s field: %v", retired.key, err)
		}
		if after := c.model("ring"); !reflect.DeepEqual(after.Hypotheses, before.Hypotheses) {
			t.Fatalf("model imported with a %s field %v, want %v", retired.key, after.Hypotheses, before.Hypotheses)
		}
	}
}

// withRetiredOption adds `"key": value` to an envelope's learner
// options and, with inSnapshot, to its learner snapshot, leaving every
// field of the envelope as it was.
func withRetiredOption(env []byte, key, value string, inSnapshot bool) ([]byte, error) {
	var cf, info, opts, snap map[string]json.RawMessage
	if err := json.Unmarshal(env, &cf); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(cf["info"], &info); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(info["options"], &opts); err != nil {
		return nil, err
	}
	opts[key] = json.RawMessage(value)
	var err error
	if info["options"], err = json.Marshal(opts); err != nil {
		return nil, err
	}
	if cf["info"], err = json.Marshal(info); err != nil {
		return nil, err
	}
	if inSnapshot {
		if err := json.Unmarshal(cf["snapshot"], &snap); err != nil {
			return nil, err
		}
		snap[key] = json.RawMessage(value)
		if cf["snapshot"], err = json.Marshal(snap); err != nil {
			return nil, err
		}
	}
	return json.Marshal(cf)
}

// TestCorpusCheckpointRestart is the acceptance criterion made
// executable: for every golden-corpus entry, feeding half the trace,
// checkpointing, restarting the server from disk and feeding the rest
// yields exactly the model of an uninterrupted batch run.
func TestCorpusCheckpointRestart(t *testing.T) {
	corpus, err := conformance.LoadCorpus("../../testdata/corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range corpus.Entries {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			opt := LearnOptions{
				Bound:          8,
				SenderWindow:   e.SenderWindow,
				ReceiverWindow: e.ReceiverWindow,
				MaxSenders:     e.MaxSenders,
				MaxReceivers:   e.MaxReceivers,
			}
			tables, lub := batchTables(t, e.Trace, opt.options())

			dir := t.TempDir()
			sv := New(Config{CheckpointDir: dir})
			ts := httptest.NewServer(sv.Handler())
			c := newClient(t, ts)
			c.createStream(CreateStreamRequest{ID: e.Name, Tasks: e.Trace.Tasks, Options: opt})

			lines := strings.Split(strings.TrimRight(e.Trace.String(), "\n"), "\n")
			lines = append(lines, "period")
			// Split the feed at a line boundary near the middle; the
			// server cuts periods wherever they happen to fall.
			half := len(lines) / 2
			c.feed(e.Name, strings.Join(lines[:half], "\n"))
			// Periods may straddle the split: checkpoint whatever is
			// complete, remember where the open period started, and
			// replay from there after the restart (the documented
			// client contract for mid-period restarts).
			var replayFrom int
			st := c.stats(e.Name)
			if st.Partial {
				replayFrom = lastPeriodStart(lines[:half])
			} else {
				replayFrom = half
			}
			resp, out := c.do("POST", "/v1/streams/"+e.Name+"/compact", nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("compact: %d %s", resp.StatusCode, out)
			}
			ts.Close()

			sv2 := New(Config{CheckpointDir: dir})
			if n, err := sv2.RestoreFromDir(); err != nil || n != 1 {
				t.Fatalf("restore: n=%d err=%v", n, err)
			}
			ts2 := httptest.NewServer(sv2.Handler())
			defer ts2.Close()
			c2 := newClient(t, ts2)
			c2.feed(e.Name, strings.Join(lines[replayFrom:], "\n"))
			assertModelEquals(t, c2.model(e.Name), tables, lub)
		})
	}
}

// lastPeriodStart returns the index of the first line after the last
// "period" directive (or after the header), i.e. where the open
// period's lines begin.
func lastPeriodStart(lines []string) int {
	at := 0
	for i, line := range lines {
		f := strings.Fields(strings.TrimSpace(line))
		if len(f) > 0 && (f[0] == "period" || f[0] == "tasks") {
			at = i + 1
		}
	}
	return at
}
