package load

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"time"

	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
)

// worker drives one synthetic stream.
type worker struct {
	id       string
	class    Class
	cfg      *Config
	client   *target
	stats    *classStats
	failures *failureSample
	rng      *rand.Rand

	// Drift-injection bookkeeping (drift mode sends synchronously, so
	// these need no locking).
	periodsGen         int // periods rendered so far
	acceptedStationary int // pre-flip periods the server accepted
}

// createRequest is the stream's create body: candump streams get a
// bus and a period grid, drift runs a monitor.
func (w *worker) createRequest() serve.CreateStreamRequest {
	req := serve.CreateStreamRequest{ID: w.id}
	if w.class == ClassCandump {
		req.BitRate, req.PeriodUS = bitRate, periodUS
	}
	if w.cfg.DriftFlipAfter > 0 {
		req.Drift = &serve.DriftOptions{Enabled: true}
	}
	return req
}

// run fires batches on the open-loop schedule: batch n is due at
// start + n/rate, independent of how earlier batches fared. Responses
// are awaited on their own goroutines, bounded by the shared
// semaphore and tracked by inflight so Run can wait them out before
// reading the stats.
func (w *worker) run(ctx context.Context, start time.Time, rate float64, sem chan struct{}, inflight *sync.WaitGroup) {
	interval := time.Duration(float64(time.Second) / rate)
	// Desynchronize the fleet: stream n starts at a random phase of
	// its interval instead of all firing on the same tick.
	phase := time.Duration(w.rng.Int63n(int64(interval) + 1))
	for n := int64(0); ; n++ {
		due := start.Add(phase + time.Duration(n)*interval)
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Until(due)):
		}
		batch, pre := w.nextBatch()
		if w.cfg.DriftFlipAfter > 0 {
			// Drift mode: the Page–Hinkley failure signal is
			// sequential, so batches must arrive in generation order —
			// send on the schedule goroutine itself.
			w.send(ctx, batch, pre)
			continue
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return
		}
		inflight.Add(1)
		go func(batch string) {
			defer inflight.Done()
			defer func() { <-sem }()
			w.send(ctx, batch, pre)
		}(batch)
	}
}

// flipPoint is the true change point on the server: the period after
// the last accepted stationary one.
func (w *worker) flipPoint() int { return w.acceptedStationary + 1 }

// nextBatch renders the stream's next PeriodsPerBatch periods and
// returns the batch with how many of them are pre-flip (stationary).
func (w *worker) nextBatch() (string, int) {
	from, n, flip := w.periodsGen, w.cfg.PeriodsPerBatch, w.cfg.DriftFlipAfter
	w.periodsGen += n
	pre := n
	if flip > 0 {
		pre = min(max(flip-from, 0), n)
	}
	return renderBatch(from, n, w.class == ClassCandump, flip), pre
}

func (w *worker) send(ctx context.Context, batch string, pre int) {
	var hdr map[string]string
	if p := w.cfg.TraceSample; p > 0 {
		w.stats.mu.Lock()
		roll := w.rng.Float64()
		w.stats.mu.Unlock()
		if roll < p {
			hdr = map[string]string{"traceparent": randomTraceparent(roll)}
		}
	}
	o := w.client.post(ctx, w.id, []byte(batch), hdr)
	if o.err != nil && ctx.Err() != nil {
		return // the run ended mid-request; not a server failure
	}

	w.stats.mu.Lock()
	defer w.stats.mu.Unlock()
	w.stats.requests++
	w.stats.lines += int64(strings.Count(batch, "\n"))
	switch o.kind {
	case accepted:
		w.stats.samples = append(w.stats.samples, o.latency)
		w.stats.periods += int64(o.ingest.Periods)
		if w.cfg.DriftFlipAfter > 0 {
			// The candump grid may hold one period back, so count the
			// server's number, capped at the batch's stationary share.
			w.acceptedStationary += min(o.ingest.Periods, pre)
		}
		return
	case shed:
		w.stats.shed++
	default:
		w.stats.errors++
	}
	w.failures.add(w.id, o)
}

// randomTraceparent builds a sampled traceparent from the given
// entropy source value (stretched over the ID bytes via obs's parser
// requirements: nonzero trace and span IDs).
func randomTraceparent(seed float64) string {
	r := rand.New(rand.NewSource(int64(seed*float64(1<<62)) | 1))
	var tid obs.TraceID
	var sid obs.SpanID
	for i := range tid {
		tid[i] = byte(r.Intn(255) + 1)
	}
	for i := range sid {
		sid[i] = byte(r.Intn(255) + 1)
	}
	return obs.SpanContext{TraceID: tid, SpanID: sid, Sampled: true}.Traceparent()
}
