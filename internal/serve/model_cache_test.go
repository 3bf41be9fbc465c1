package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// modelHarness serves one server and counts the GET /model calls made
// through it.
type modelHarness struct {
	t    *testing.T
	sv   *Server
	ts   *httptest.Server
	c    *client
	reg  *obs.Registry
	gets int
}

func newModelHarness(t *testing.T, cfg Config) *modelHarness {
	cfg.Registry = obs.NewRegistry()
	sv := New(cfg)
	ts := httptest.NewServer(sv.Handler())
	return &modelHarness{t: t, sv: sv, ts: ts, c: newClient(t, ts), reg: cfg.Registry}
}

func (h *modelHarness) close() {
	h.ts.Close()
	shutdownServer(h.t, h.sv)
}

func (h *modelHarness) renders() int64 {
	return h.reg.Counter("serve_model_renders_total", "").Value()
}

// freshModelBody renders the stream's /model body the uncached way:
// Online.Result on the owner goroutine, laid out as a ModelResponse
// and encoded by writeJSON.
func (h *modelHarness) freshModelBody(id string) []byte {
	h.t.Helper()
	s, ok := h.sv.stream(id)
	if !ok {
		h.t.Fatalf("no stream %q", id)
	}
	var res *learner.Result
	var resErr error
	if err := s.do(func(o *learner.Online) { res, resErr = o.Result() }); err != nil {
		h.t.Fatal(err)
	}
	if resErr != nil {
		h.t.Fatal(resErr)
	}
	m := ModelResponse{
		ID:        id,
		Tasks:     res.TaskSet.Names(),
		LUB:       res.LUB.Table(),
		Converged: res.Converged,
		Periods:   res.Stats.Periods,
	}
	for _, d := range res.Hypotheses {
		m.Hypotheses = append(m.Hypotheses, d.Table())
	}
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, m)
	return rec.Body.Bytes()
}

// checkModel GETs the model twice, so the second read can come from
// the cache, and requires both bodies to equal the fresh rendering.
func (h *modelHarness) checkModel(id, at string) {
	h.t.Helper()
	want := h.freshModelBody(id)
	for range 2 {
		resp, got := h.c.do("GET", "/v1/streams/"+id+"/model", nil)
		h.gets++
		if resp.StatusCode != http.StatusOK {
			h.t.Fatalf("%s: model %s: %d %s", at, id, resp.StatusCode, got)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			h.t.Fatalf("%s: model content type %q", at, ct)
		}
		if !bytes.Equal(got, want) {
			h.t.Fatalf("%s: served /model body differs from a fresh rendering\nserved:\n%s\nfresh:\n%s", at, got, want)
		}
	}
}

// batches splits periods into ingest batches of k periods.
func batches(periods []*trace.Period, k int) []string {
	var out []string
	for i := 0; i < len(periods); i += k {
		var sb strings.Builder
		for _, p := range periods[i:min(i+k, len(periods))] {
			sb.WriteString(periodText(p))
		}
		out = append(out, sb.String())
	}
	return out
}

// TestModelBodyIdentity: every GET /model body, cached or not, equals
// the body rendered afresh from Online.Result, across a case-study
// stream fed in 3-period batches, a WAL compaction and restart, an
// export/import, and a VerifyResults stream (which bypasses the
// cache); and the cache renders fewer bodies than it serves.
func TestModelBodyIdentity(t *testing.T) {
	tr := casestudy.MustFullTrace()
	bs := batches(tr.Periods, 3)
	opts := LearnOptions{Bound: 16}
	dir := t.TempDir()
	cfg := Config{CheckpointDir: dir, CheckpointEvery: 4}

	h := newModelHarness(t, cfg)
	h.c.createStream(CreateStreamRequest{ID: "cs", Tasks: tr.Tasks, Options: opts})
	h.c.createStream(CreateStreamRequest{ID: "ver", Tasks: tr.Tasks,
		Options: LearnOptions{Bound: 16, VerifyResults: true, RetainPeriods: 6}})
	fed := 0
	for ; fed < len(bs)-3; fed++ {
		h.c.feed("cs", bs[fed])
		h.c.feed("ver", bs[fed])
		h.checkModel("cs", fmt.Sprintf("batch %d", fed))
		h.checkModel("ver", fmt.Sprintf("verified batch %d", fed))
	}
	if resp, body := h.c.do("POST", "/v1/streams/cs/compact", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: %d %s", resp.StatusCode, body)
	}
	h.c.feed("cs", bs[fed])
	fed++
	h.checkModel("cs", "after compaction")
	gets, renders := h.gets, h.renders()
	h.close()

	// Restart: the stream hydrates from the base plus its WAL tail.
	h2 := newModelHarness(t, cfg)
	defer h2.close()
	if n, err := h2.sv.RestoreFromDir(); err != nil || n != 2 {
		t.Fatalf("restore: n=%d err=%v", n, err)
	}
	h2.checkModel("cs", "after restart")
	h2.c.feed("cs", bs[fed])
	fed++
	h2.checkModel("cs", "fed after restart")

	// Export/import onto a third server, which keeps learning.
	env, learned, err := h2.sv.ExportStream("cs")
	if err != nil {
		t.Fatal(err)
	}
	h3 := newModelHarness(t, Config{})
	defer h3.close()
	if _, err := h3.sv.ImportStream(env, learned); err != nil {
		t.Fatal(err)
	}
	h3.checkModel("cs", "after import")
	h3.c.feed("cs", bs[fed])
	h3.checkModel("cs", "fed after import")

	gets += h2.gets + h3.gets
	renders += h2.renders() + h3.renders()
	if renders >= int64(gets) {
		t.Fatalf("rendered %d model bodies for %d GETs: the cache never hit", renders, gets)
	}
	t.Logf("%d GET /model, %d renders", gets, renders)
}

// TestModelCacheFollowsGeneration: a GET after a period that changed
// the working set renders afresh, a GET after only skipped periods
// reuses the body with the new period count, and a dot rendering
// leaves the cache alone.
func TestModelCacheFollowsGeneration(t *testing.T) {
	h := newModelHarness(t, Config{})
	defer h.close()
	h.c.createStream(CreateStreamRequest{ID: "g", Tasks: []string{"t1", "t2"}})
	h.c.feed("g", learnableFeed(0, 1))
	h.checkModel("g", "first period")
	if r := h.renders(); r != 1 {
		t.Fatalf("%d renders after the first period, want 1", r)
	}
	// The same shape again is skipped: the body is reused, only
	// "periods" moves.
	h.c.feed("g", learnableFeed(1000, 3))
	h.checkModel("g", "skipped periods")
	if r := h.renders(); r != 1 {
		t.Fatalf("%d renders after skipped periods, want 1", r)
	}
	if resp, body := h.c.do("GET", "/v1/streams/g/model?format=dot", nil); resp.StatusCode != http.StatusOK ||
		!strings.Contains(string(body), "digraph") {
		t.Fatalf("dot: %d %s", resp.StatusCode, body)
	}
	// t2 now runs alone: the period changes the model.
	h.c.feed("g", "exec t2 9000 9100\nperiod\n")
	h.checkModel("g", "changed model")
	if r := h.renders(); r != 2 {
		t.Fatalf("%d renders after a model change, want 2", r)
	}
}

// TestModelCacheAcrossDriftFork: a drift fork swaps in a fresh learner
// whose generation count starts over, so the cache must not serve the
// retired learner's body even where the two counts meet.
func TestModelCacheAcrossDriftFork(t *testing.T) {
	h := newModelHarness(t, Config{})
	defer h.close()
	h.c.createStream(CreateStreamRequest{ID: "d", Tasks: []string{"t1", "t2"}, Drift: driftEnabled()})
	const flipAt = 20
	h.c.feed("d", driftFeed(0, flipAt))
	h.checkModel("d", "stationary")
	for k := range 15 {
		h.c.feed("d", flipFeed(flipAt+k, 1))
		h.checkModel("d", fmt.Sprintf("flipped period %d", k))
	}
	if dr, _ := h.c.drift("d"); dr.State.Generation != 2 {
		t.Fatalf("drift generation %d, want a fork to 2", dr.State.Generation)
	}
}

// TestModelPrefixKeysOnLearner: two learners at the same generation
// count are different working sets; the cache keys on the learner as
// well as the count.
func TestModelPrefixKeysOnLearner(t *testing.T) {
	s := &stream{id: "k", sharedInstruments: &sharedInstruments{}}
	body := func(o *learner.Online) string {
		t.Helper()
		p, err := s.modelPrefix(o)
		if err != nil {
			t.Fatal(err)
		}
		return string(p)
	}
	var bodies []string
	// t1 sends to t2, then t2 sends to t1.
	for _, feed := range []string{learnableFeed(0, 1), "exec t2 0 100\nmsg m1 150 200\nexec t1 400 500\nperiod\n"} {
		o, err := learner.NewOnline([]string{"t1", "t2"}, learner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Read(strings.NewReader("tasks t1 t2\n" + feed))
		if err != nil {
			t.Fatal(err)
		}
		if err := o.AddPeriod(tr.Periods[0]); err != nil {
			t.Fatal(err)
		}
		if o.Generation() == 0 {
			t.Fatal("a learned period left the generation at zero")
		}
		bodies = append(bodies, body(o))
	}
	if bodies[0] == bodies[1] {
		t.Fatalf("learners with different models at the same generation got one body:\n%s", bodies[0])
	}
}
