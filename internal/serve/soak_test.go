//go:build soak

package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// TestSoak drives the service the way a deployment would: many
// streams, each fed hundreds of simulated periods through the HTTP
// API with periodic checkpointing enabled, all concurrently. It then
// checks the three long-run health properties the short integration
// tests cannot: every stream still converges to the batch-learner
// model, no goroutine outlives its stream, and heap usage returns to
// (near) baseline once the streams are gone — i.e. per-stream state
// really is bounded (the retention ring and the ingest queue; the
// engine counters are fixed-size) and really is released.
//
// Run it with the soak build tag, e.g. `make soak`.
func TestSoak(t *testing.T) {
	const (
		nStreams = 16
		nPeriods = 600
		chunk    = 40 // feed lines per request
	)

	// Pre-generate the traces and batch answers before measuring the
	// baseline, so trace memory is not attributed to the server.
	traces := make([]*trace.Trace, nStreams)
	wantLUB := make([]string, nStreams)
	opt := LearnOptions{Bound: 8, RetainPeriods: 4}
	for i := range traces {
		out, err := sim.Run(model.Figure1(), sim.Options{Periods: nPeriods, Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		traces[i] = out.Trace
		res, err := learner.Learn(out.Trace, opt.options())
		if err != nil {
			t.Fatal(err)
		}
		wantLUB[i] = res.LUB.Table()
	}

	goroutinesBefore := runtime.NumGoroutine()
	heapBefore := heapInUse()

	sv := New(Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 50,
		QueueDepth:      32,
	})
	ts := httptest.NewServer(sv.Handler())
	c := newClient(t, ts)

	errs := make(chan error, nStreams)
	for i := 0; i < nStreams; i++ {
		id := fmt.Sprintf("soak%02d", i)
		c.createStream(CreateStreamRequest{ID: id, Tasks: traces[i].Tasks, Options: opt})
		go func(i int, id string) {
			lines := strings.Split(strings.TrimRight(traces[i].String(), "\n"), "\n")
			lines = append(lines, "period")
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
					time.Sleep(5 * time.Millisecond)
				}
			}
			errs <- nil
		}(i, id)
	}
	for i := 0; i < nStreams; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < nStreams; i++ {
		id := fmt.Sprintf("soak%02d", i)
		m := c.model(id)
		if m.LUB != wantLUB[i] {
			t.Errorf("stream %s LUB diverged from batch:\n%s\nvs\n%s", id, m.LUB, wantLUB[i])
		}
		st := c.stats(id)
		if st.PeriodsLearned != len(traces[i].Periods) {
			t.Errorf("stream %s learned %d periods, fed %d", id, st.PeriodsLearned, len(traces[i].Periods))
		}
	}

	// Tear everything down and verify nothing is left behind.
	for i := 0; i < nStreams; i++ {
		resp, _ := c.do("DELETE", fmt.Sprintf("/v1/streams/soak%02d", i), nil)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete soak%02d: %d", i, resp.StatusCode)
		}
	}
	ts.Close()
	if err := sv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > goroutinesBefore {
		time.Sleep(20 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > goroutinesBefore {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked: %d before, %d after\n%s",
			goroutinesBefore, now, buf[:runtime.Stack(buf, true)])
	}

	heapAfter := heapInUse()
	const budget = 32 << 20
	if heapAfter > heapBefore+budget {
		t.Fatalf("heap grew %d -> %d bytes (budget %d): per-stream state not released",
			heapBefore, heapAfter, budget)
	}
}

func heapInUse() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}
