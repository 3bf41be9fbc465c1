// Package load is the SLO-tracked load generator behind cmd/bbload:
// it drives N synthetic streams of text and candump traffic against a
// bbserved instance — live over HTTP or in-process through its
// handler — on an open-loop schedule, measures client-observed ingest
// latency, throughput, shed rate and availability per stream class,
// and evaluates the result against declarative thresholds so CI can
// gate on "the service still meets its SLOs under this load".
//
// Open loop means each stream fires batches on a fixed schedule
// derived from the target aggregate rate, regardless of how fast the
// server answers; responses are awaited on their own goroutines
// (bounded by a concurrency cap), so a slowing server faces mounting
// concurrent work rather than a politely backing-off client. That is
// the load shape the paper's setting implies: a CAN bus does not slow
// down because the logger is busy.
package load

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/blackbox-rt/modelgen/internal/serve"
)

// Class names a synthetic traffic shape.
type Class string

const (
	// ClassText streams text-format task/message directives with
	// explicit period cuts.
	ClassText Class = "text"
	// ClassCandump streams raw candump frames interleaved with text
	// task events on a period grid — the mixed-format ingest path.
	ClassCandump Class = "candump"
)

// Thresholds are the pass/fail criteria of a run. Zero values disable
// the corresponding check.
type Thresholds struct {
	// P99LatencySeconds bounds the client-observed p99 ingest request
	// latency, per class and overall.
	P99LatencySeconds float64
	// MaxShedRate bounds shed requests / total requests.
	MaxShedRate float64
	// MinAvailability bounds successful (non-5xx, non-transport-error)
	// requests / total requests from below.
	MinAvailability float64
}

// DefaultThresholds are the bbserved serving objectives seen from the
// client: p99 under 500 ms, at most 1% shed, 99.9% availability.
func DefaultThresholds() Thresholds {
	return Thresholds{P99LatencySeconds: 0.5, MaxShedRate: 0.01, MinAvailability: 0.999}
}

// Config configures a run.
type Config struct {
	// BaseURL targets a live server ("http://host:port"). Leave empty
	// and set Handler to drive an in-process server.
	BaseURL string
	// Handler is the in-process target when BaseURL is empty.
	Handler http.Handler
	// Streams is the number of concurrent synthetic streams.
	Streams int
	// CandumpFraction is the fraction of streams in ClassCandump
	// (default 0.5).
	CandumpFraction float64
	// Duration is how long to generate load.
	Duration time.Duration
	// Rate is the target aggregate batch rate per second across all
	// streams (default 2 per stream).
	Rate float64
	// PeriodsPerBatch is the learnable periods each batch carries
	// (default 3).
	PeriodsPerBatch int
	// TraceSample sends a W3C traceparent header on this fraction of
	// batches, forcing server-side trace recording for them.
	TraceSample float64
	// SLO holds the thresholds evaluated into Report.Violations.
	SLO Thresholds
	// Cleanup deletes the synthetic streams after the run, also when
	// ctx was cancelled (default keeps them; bbload's in-process mode
	// shuts the server down instead). A run that fails to create its
	// fleet deletes the streams it made either way.
	Cleanup bool
	// DriftFlipAfter, when positive, turns the run into a
	// drift-injection scenario: every stream is created with the drift
	// monitor enabled, batches are sent synchronously (the detector's
	// failure signal is sequential, so sends must not reorder), and
	// once a stream has generated this many periods its traffic shape
	// flips — the message and the receiving task disappear. After the
	// run each stream's /drift state is collected into Report.Drift
	// and evaluated: the flip must be detected within DriftWindow
	// periods of the true change point, with no false alarms.
	DriftFlipAfter int
	// DriftWindow bounds the detection lag in periods (default 20).
	DriftWindow int
}

// ClassReport aggregates one stream class (or the total).
type ClassReport struct {
	Class    string  `json:"class"`
	Streams  int     `json:"streams"`
	Requests int64   `json:"requests"`
	Shed     int64   `json:"shed"`
	Errors   int64   `json:"errors"`
	Lines    int64   `json:"lines"`
	Periods  int64   `json:"periods"`
	P50      float64 `json:"p50_seconds"`
	P95      float64 `json:"p95_seconds"`
	P99      float64 `json:"p99_seconds"`
	// Throughput is accepted requests per second.
	Throughput float64 `json:"throughput_rps"`
	// ShedRate is shed/requests; Availability is 1 − errors/requests.
	ShedRate     float64 `json:"shed_rate"`
	Availability float64 `json:"availability"`
}

// DriftStream is one stream's detection outcome in a drift-injection
// run.
type DriftStream struct {
	ID string `json:"id"`
	// Expected is the true change point: the first flipped period the
	// server accepted.
	Expected int `json:"expected_change_point"`
	// ChangePoint/AlarmPeriod/Alarms/Generation mirror the stream's
	// /drift state after the run.
	ChangePoint int `json:"change_point"`
	AlarmPeriod int `json:"alarm_period"`
	Alarms      int `json:"alarms"`
	Generation  int `json:"generation"`
	// Detected: exactly one alarm, pointing at the true change point
	// (within a small slack), within the window. FalseAlarm: extra
	// alarms or an alarm at the wrong place.
	Detected   bool `json:"detected"`
	FalseAlarm bool `json:"false_alarm"`
}

// DriftReport aggregates the drift-injection outcome.
type DriftReport struct {
	FlipAfter   int           `json:"flip_after"`
	Window      int           `json:"window"`
	Streams     int           `json:"streams"`
	Detected    int           `json:"detected"`
	Undetected  int           `json:"undetected"`
	FalseAlarms int           `json:"false_alarms"`
	MaxLag      int           `json:"max_lag_periods"`
	Entries     []DriftStream `json:"entries"`
}

// Report is the outcome of a run.
type Report struct {
	Duration time.Duration `json:"duration_ns"`
	Classes  []ClassReport `json:"classes"`
	Total    ClassReport   `json:"total"`
	Drift    *DriftReport  `json:"drift,omitempty"`
	// Failures samples the first requests that did not get in.
	Failures   []Failure `json:"failures,omitempty"`
	Violations []string  `json:"violations,omitempty"`
}

// Violated reports whether any SLO threshold was breached.
func (r Report) Violated() bool { return len(r.Violations) > 0 }

// Format renders the human-readable report bbload prints.
func (r Report) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bbload report (%s)\n", r.Duration.Round(time.Millisecond))
	fmt.Fprintf(&sb, "%-8s %8s %9s %6s %6s %9s %9s %9s %10s %7s\n",
		"class", "streams", "requests", "shed", "errors", "p50", "p95", "p99", "rps", "avail")
	row := func(c ClassReport) {
		fmt.Fprintf(&sb, "%-8s %8d %9d %6d %6d %9s %9s %9s %10.1f %6.2f%%\n",
			c.Class, c.Streams, c.Requests, c.Shed, c.Errors,
			fmtSec(c.P50), fmtSec(c.P95), fmtSec(c.P99), c.Throughput, c.Availability*100)
	}
	for _, c := range r.Classes {
		row(c)
	}
	row(r.Total)
	if d := r.Drift; d != nil {
		fmt.Fprintf(&sb, "drift: flip@%d window=%d streams=%d detected=%d undetected=%d false=%d max_lag=%d\n",
			d.FlipAfter, d.Window, d.Streams, d.Detected, d.Undetected, d.FalseAlarms, d.MaxLag)
	}
	formatTail(&sb, r.Failures, r.Violations, "SLO: ok\n", "SLO VIOLATION")
	return sb.String()
}

func fmtSec(s float64) string {
	switch {
	case s <= 0:
		return "-"
	case s < 0.001:
		return fmt.Sprintf("%.0fµs", s*1e6)
	case s < 1:
		return fmt.Sprintf("%.1fms", s*1e3)
	default:
		return fmt.Sprintf("%.2fs", s)
	}
}

// classStats is the shared accumulator of one class.
type classStats struct {
	mu       sync.Mutex
	streams  int
	requests int64
	shed     int64
	errors   int64
	lines    int64
	periods  int64
	samples  []float64 // seconds, accepted requests only
}

// Run executes the load profile and returns the report. The context
// cancels the run early (the partial report is still returned).
func Run(ctx context.Context, cfg Config) (Report, error) {
	if cfg.Streams <= 0 {
		cfg.Streams = 1
	}
	if cfg.PeriodsPerBatch <= 0 {
		cfg.PeriodsPerBatch = 3
	}
	if cfg.Rate <= 0 {
		cfg.Rate = 2 * float64(cfg.Streams)
	}
	if cfg.CandumpFraction < 0 || cfg.CandumpFraction > 1 {
		return Report{}, fmt.Errorf("load: candump fraction %g out of [0,1]", cfg.CandumpFraction)
	}
	if cfg.CandumpFraction == 0 {
		cfg.CandumpFraction = 0.5
	}
	if cfg.DriftWindow <= 0 {
		cfg.DriftWindow = 20
	}
	client, err := newTarget(cfg)
	if err != nil {
		return Report{}, err
	}

	nCan := int(float64(cfg.Streams) * cfg.CandumpFraction)
	stats := map[Class]*classStats{
		ClassText:    {streams: cfg.Streams - nCan},
		ClassCandump: {streams: nCan},
	}
	failures := &failureSample{}
	workers := make([]*worker, 0, cfg.Streams)
	ids := make([]string, 0, cfg.Streams)
	for i := 0; i < cfg.Streams; i++ {
		class := ClassText
		if i < nCan {
			class = ClassCandump
		}
		w := &worker{
			id:       fmt.Sprintf("load-%s-%d", class, i),
			class:    class,
			cfg:      &cfg,
			client:   client,
			stats:    stats[class],
			failures: failures,
			rng:      rand.New(rand.NewSource(int64(i) + 1)),
		}
		if err := client.create(ctx, w.createRequest()); err != nil {
			client.deleteStreams(ctx, ids)
			return Report{}, err
		}
		workers = append(workers, w)
		ids = append(ids, w.id)
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	// When the in-flight cap is hit the open-loop schedule stalls,
	// which shows up as latency, not as lost sends.
	sem := make(chan struct{}, max(4*cfg.Streams, 64))
	var wg, inflight sync.WaitGroup
	start := time.Now()
	for _, w := range workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.run(runCtx, start, cfg.Rate/float64(cfg.Streams), sem, &inflight)
		}(w)
	}
	wg.Wait()
	// The schedules have stopped, but sends spawned near the deadline
	// may still be in flight (runCtx cancellation aborts them quickly);
	// the stats are read-safe only once they are done.
	inflight.Wait()
	elapsed := time.Since(start)

	rep := buildReport(cfg, elapsed, stats)
	rep.Failures = failures.list
	if cfg.DriftFlipAfter > 0 {
		// Collected under the caller's context: runCtx has expired.
		rep.Drift = collectDrift(ctx, cfg, workers)
		rep.Violations = append(rep.Violations, evaluateDrift(rep.Drift)...)
	}
	if cfg.Cleanup {
		client.deleteStreams(ctx, ids)
	}
	return rep, nil
}

// collectDrift queries every stream's /drift state and scores the
// detection against the worker's recorded flip point.
func collectDrift(ctx context.Context, cfg Config, workers []*worker) *DriftReport {
	dr := &DriftReport{FlipAfter: cfg.DriftFlipAfter, Window: cfg.DriftWindow, Streams: len(workers)}
	// The change-point estimate sits on a period boundary the server
	// and client may count one apart (candump grid flushes); allow a
	// small slack before calling an alarm misplaced.
	const slack = 2
	for _, w := range workers {
		var resp serve.DriftResponse
		err := w.client.getJSON(ctx, "/v1/streams/"+w.id+"/drift", &resp)
		if err != nil || resp.State == nil {
			dr.Undetected++
			dr.Entries = append(dr.Entries, DriftStream{ID: w.id, Expected: w.flipPoint()})
			continue
		}
		st := resp.State
		e := DriftStream{
			ID:          w.id,
			Expected:    w.flipPoint(),
			ChangePoint: st.LastChangePoint,
			AlarmPeriod: st.LastAlarmPeriod,
			Alarms:      st.Alarms,
			Generation:  st.Generation,
		}
		lag := e.AlarmPeriod - e.ChangePoint
		onPoint := e.ChangePoint >= e.Expected-slack && e.ChangePoint <= e.Expected+slack
		switch {
		case e.Alarms == 0:
			dr.Undetected++
		case e.Alarms == 1 && onPoint:
			// A slow detection is still a detection; the MaxLag check
			// reports it separately.
			e.Detected = true
			dr.Detected++
			if lag > dr.MaxLag {
				dr.MaxLag = lag
			}
		default:
			e.FalseAlarm = true
			dr.FalseAlarms++
		}
		dr.Entries = append(dr.Entries, e)
	}
	return dr
}

// evaluateDrift turns a drift report into SLO-style violations: every
// injected flip must be caught, in the window, with no false alarms.
func evaluateDrift(dr *DriftReport) []string {
	var out []string
	if dr.Undetected > 0 {
		out = append(out, fmt.Sprintf("drift: %d of %d injected flips undetected", dr.Undetected, dr.Streams))
	}
	if dr.FalseAlarms > 0 {
		out = append(out, fmt.Sprintf("drift: %d streams with false or misplaced alarms", dr.FalseAlarms))
	}
	if dr.MaxLag > dr.Window {
		out = append(out, fmt.Sprintf("drift: max detection lag %d periods over window %d", dr.MaxLag, dr.Window))
	}
	return out
}

func buildReport(cfg Config, elapsed time.Duration, stats map[Class]*classStats) Report {
	rep := Report{Duration: elapsed}
	total := &classStats{streams: cfg.Streams}
	for _, class := range []Class{ClassText, ClassCandump} {
		st := stats[class]
		if st.streams == 0 {
			continue
		}
		rep.Classes = append(rep.Classes, st.report(string(class), elapsed))
		total.requests += st.requests
		total.shed += st.shed
		total.errors += st.errors
		total.lines += st.lines
		total.periods += st.periods
		total.samples = append(total.samples, st.samples...)
	}
	rep.Total = total.report("total", elapsed)
	rep.Violations = evaluate(cfg.SLO, rep)
	return rep
}

func (st *classStats) report(name string, elapsed time.Duration) ClassReport {
	lat := summarize(st.samples)
	c := ClassReport{
		Class: name, Streams: st.streams,
		Requests: st.requests, Shed: st.shed, Errors: st.errors,
		Lines: st.lines, Periods: st.periods,
		P50: lat.P50, P95: lat.P95, P99: lat.P99,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		c.Throughput = float64(c.Requests-c.Shed-c.Errors) / sec
	}
	if c.Requests > 0 {
		c.ShedRate = float64(c.Shed) / float64(c.Requests)
		c.Availability = 1 - float64(c.Errors)/float64(c.Requests)
	} else {
		c.Availability = 1
	}
	return c
}

// evaluate turns threshold breaches into violation strings. Per-class
// p99 is checked alongside the total so a bad class cannot hide
// inside a healthy aggregate.
func evaluate(slo Thresholds, rep Report) []string {
	var out []string
	check := func(c ClassReport) {
		if slo.P99LatencySeconds > 0 && c.P99 > slo.P99LatencySeconds {
			out = append(out, fmt.Sprintf("%s: p99 %s over threshold %s",
				c.Class, fmtSec(c.P99), fmtSec(slo.P99LatencySeconds)))
		}
		if slo.MaxShedRate > 0 && c.Requests > 0 && c.ShedRate > slo.MaxShedRate {
			out = append(out, fmt.Sprintf("%s: shed rate %.3f over threshold %.3f",
				c.Class, c.ShedRate, slo.MaxShedRate))
		}
		if slo.MinAvailability > 0 && c.Requests > 0 && c.Availability < slo.MinAvailability {
			out = append(out, fmt.Sprintf("%s: availability %.4f under threshold %.4f",
				c.Class, c.Availability, slo.MinAvailability))
		}
	}
	for _, c := range rep.Classes {
		check(c)
	}
	check(rep.Total)
	return out
}
