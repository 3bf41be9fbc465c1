package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/store"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// streamSeriesLines counts the /metrics sample lines labeled with the
// stream's ID.
func streamSeriesLines(t *testing.T, c *client, id string) int {
	t.Helper()
	resp, body := c.do("GET", "/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	n := 0
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "#") && strings.Contains(line, `stream="`+id+`"`) {
			n++
		}
	}
	return n
}

// TestStreamSeriesLifecycle: a stream's per-stream series live exactly
// as long as the stream. A refused duplicate create or import leaves
// the live stream's series in place; delete, export and a create
// refused by a closed server leave none behind. Run with and without a
// store, whose create refuses a duplicate before the registry check.
func TestStreamSeriesLifecycle(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "store"
		}
		t.Run(name, func(t *testing.T) {
			cfg := Config{Registry: obs.NewRegistry()}
			if durable {
				cfg.CheckpointDir = t.TempDir()
			}
			sv := New(cfg)
			ts := httptest.NewServer(sv.Handler())
			defer ts.Close()
			c := newClient(t, ts)
			req := CreateStreamRequest{ID: "x", Tasks: []string{"t1", "t2"}, Drift: driftEnabled()}
			c.createStream(req)
			c.feed("x", learnableFeed(0, 2))
			// Queue depth, periods, shed and the four drift series.
			const live = 7
			if got := streamSeriesLines(t, c, "x"); got != live {
				t.Fatalf("live stream has %d series lines, want %d", got, live)
			}
			if _, body := c.do("GET", "/metrics", nil); !strings.Contains(string(body), obs.MetricDriftGeneration+`{stream="x"} 1`) {
				t.Fatalf("drift generation series not seeded at create:\n%s", body)
			}

			body, _ := json.Marshal(req)
			if resp, _ := c.do("POST", "/v1/streams", body); resp.StatusCode != http.StatusConflict {
				t.Fatalf("duplicate create: %d, want 409", resp.StatusCode)
			}
			if got := streamSeriesLines(t, c, "x"); got != live {
				t.Fatalf("duplicate create left %d series lines of the live stream, want %d", got, live)
			}

			// An envelope of the same ID, exported from another server.
			other := New(Config{})
			if _, err := other.addStream(StreamInfo{ID: "x", Tasks: req.Tasks, Drift: req.Drift}, nil, 0, nil); err != nil {
				t.Fatal(err)
			}
			env, learned, err := other.ExportStream("x")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sv.ImportStream(env, learned); !errors.Is(err, ErrStreamExists) {
				t.Fatalf("duplicate import: %v, want ErrStreamExists", err)
			}
			if got := streamSeriesLines(t, c, "x"); got != live {
				t.Fatalf("duplicate import left %d series lines of the live stream, want %d", got, live)
			}

			if resp, _ := c.do("DELETE", "/v1/streams/x", nil); resp.StatusCode != http.StatusNoContent {
				t.Fatalf("delete: %d", resp.StatusCode)
			}
			if got := streamSeriesLines(t, c, "x"); got != 0 {
				t.Fatalf("deleted stream left %d series lines", got)
			}

			c.createStream(CreateStreamRequest{ID: "y", Tasks: req.Tasks, Drift: req.Drift})
			c.feed("y", learnableFeed(0, 2))
			if _, _, err := sv.ExportStream("y"); err != nil {
				t.Fatal(err)
			}
			if got := streamSeriesLines(t, c, "y"); got != 0 {
				t.Fatalf("exported stream left %d series lines", got)
			}

			if err := sv.Shutdown(context.Background()); err != nil {
				t.Fatal(err)
			}
			body, _ = json.Marshal(CreateStreamRequest{ID: "z", Tasks: req.Tasks, Drift: req.Drift})
			if resp, _ := c.do("POST", "/v1/streams", body); resp.StatusCode != http.StatusConflict {
				t.Fatalf("create on a closed server: %d, want 409", resp.StatusCode)
			}
			if got := streamSeriesLines(t, c, "z"); got != 0 {
				t.Fatalf("refused create left %d series lines", got)
			}
		})
	}
}

// TestFailedHydrationKeepsNoState: a restored stream whose WAL replay
// fails part-way is sticky-dead, and its queries answer with that error
// rather than with the half-replayed learner.
func TestFailedHydrationKeepsNoState(t *testing.T) {
	dir := t.TempDir()
	sv := New(Config{CheckpointDir: dir})
	ts := httptest.NewServer(sv.Handler())
	c := newClient(t, ts)
	tr := trace.PaperFigure2()
	c.createStream(CreateStreamRequest{ID: "s", Tasks: tr.Tasks})
	c.feed("s", tr.String()+"period\n")
	waitLearned(t, c, "s", len(tr.Periods))
	shutdownServer(t, sv)
	ts.Close()

	// A well-framed WAL record whose payload the serving layer cannot
	// decode: the store accepts it, hydration fails after the learner
	// has replayed the earlier records.
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.OpenStream("s")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Append(store.Record{Seq: h.LastSeq() + 1, Generation: 1, Payload: []byte("{not json")}); err != nil {
		t.Fatal(err)
	}
	h.Close()

	sv2 := New(Config{CheckpointDir: dir})
	if n, err := sv2.RestoreFromDir(); err != nil || n != 1 {
		t.Fatalf("restore: %d streams, %v", n, err)
	}
	defer shutdownServer(t, sv2)
	ts2 := httptest.NewServer(sv2.Handler())
	defer ts2.Close()
	c2 := newClient(t, ts2)
	if resp, body := c2.do("GET", "/v1/streams/s/model", nil); resp.StatusCode != http.StatusConflict ||
		!strings.Contains(string(body), "hydrate") {
		t.Fatalf("model of a stream whose hydration failed: %d %s, want 409 with the hydrate error", resp.StatusCode, body)
	}
	if st := c2.stats("s"); !strings.Contains(st.Err, "hydrate") {
		t.Fatalf("stats error %q, want the hydrate error", st.Err)
	}
}

// TestStreamSeriesChurn: deletes and creates of one ID racing each
// other never leave the surviving stream without its series.
func TestStreamSeriesChurn(t *testing.T) {
	reg := obs.NewRegistry()
	sv := New(Config{Registry: reg})
	info := StreamInfo{ID: "c", Tasks: []string{"t1", "t2"}}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each delete is followed by a create, so the stream
			// exists at the end, often created while some delete
			// was still retiring its predecessor.
			for i := 0; i < 50; i++ {
				if s := sv.unpublish("c"); s != nil {
					sv.retire(s)
				}
				if _, err := sv.addStream(info, nil, 0, nil); err != nil && !errors.Is(err, errStreamExists) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	series := 0
	for name := range reg.Snapshot() {
		if strings.Contains(name, `stream="c"`) {
			series++
		}
	}
	if !sv.StreamExists("c") {
		t.Fatal("stream c missing after a final create")
	}
	if series != 3 {
		t.Fatalf("live stream c has %d series, want 3", series)
	}
	shutdownServer(t, sv)
}
