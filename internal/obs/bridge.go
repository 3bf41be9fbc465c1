package obs

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Metric-name constants of the learner bridge (see the package
// comment for the full catalogue).
const (
	MetricPeriods        = "modelgen_learner_periods_total"
	MetricPeriodsSkipped = "modelgen_learner_periods_skipped_total"
	MetricMessages       = "modelgen_learner_messages_total"
	MetricSpawned        = "modelgen_learner_hypotheses_spawned_total"
	MetricPruned         = "modelgen_learner_hypotheses_pruned_total"
	MetricMerges         = "modelgen_learner_merges_total"
	MetricRelaxations    = "modelgen_learner_relaxations_total"
	MetricLive           = "modelgen_learner_live_hypotheses"
	MetricPeak           = "modelgen_learner_peak_hypotheses"
	MetricCandidates     = "modelgen_learner_candidates_per_message"
	MetricLivePerPeriod  = "modelgen_learner_live_per_period"
	MetricRuns           = "modelgen_learner_runs_total"
	MetricRunSeconds     = "modelgen_learner_run_seconds"
	MetricProvSteps      = "modelgen_learner_provenance_steps_total"
)

// Metric-name constants of the drift/convergence family, maintained
// per stream by internal/serve from the internal/drift monitor.
const (
	// MetricDriftGeneration is the stream's current model generation
	// (gauge, 1-based; bumped on every change-point alarm).
	MetricDriftGeneration = "modelgen_drift_generation"
	// MetricDriftStreak is the stability streak: periods since the
	// model fingerprint last changed (gauge).
	MetricDriftStreak = "modelgen_drift_streak_periods"
	// MetricDriftAmbiguity is the fraction of ordered task pairs with
	// a conditional (→?, ←?, ↔?) entry in the live model (float
	// gauge in [0,1]).
	MetricDriftAmbiguity = "modelgen_drift_ambiguity_ratio"
	// MetricDriftAlarms counts change-point alarms (counter).
	MetricDriftAlarms = "modelgen_drift_alarms_total"
	// MetricDriftLag is the service-wide detection-lag histogram:
	// periods between the estimated change point and the alarm, with
	// the triggering request's trace ID as exemplar.
	MetricDriftLag = "modelgen_drift_detection_lag_periods"
)

// DriftLagBuckets are the detection-lag histogram bounds, in periods.
var DriftLagBuckets = []float64{1, 2, 3, 5, 8, 13, 20, 40, 80}

// Metric-name constants of the stream state store (internal/store):
// the per-stream period WAL and its compactor.
const (
	// MetricStoreWALRecords counts period records appended across all
	// streams (counter).
	MetricStoreWALRecords = "modelgen_store_wal_records_total"
	// MetricStoreWALBytes counts WAL bytes written, frames included
	// (counter).
	MetricStoreWALBytes = "modelgen_store_wal_bytes_total"
	// MetricStoreCompactions counts WAL-into-base compactions
	// (counter).
	MetricStoreCompactions = "modelgen_store_compactions_total"
	// MetricStoreHydrations counts lazy stream hydrations: cold state
	// paged in as base + WAL replay (counter).
	MetricStoreHydrations = "modelgen_store_hydrations_total"
	// MetricStoreHydrationSeconds is the hydration-latency histogram.
	MetricStoreHydrationSeconds = "modelgen_store_hydration_seconds"
	// MetricStoreDirtyStreams is the number of open streams with WAL
	// records not yet folded into their base snapshot (gauge).
	MetricStoreDirtyStreams = "modelgen_store_dirty_streams"
)

// HydrationSecondsBuckets are the hydration-latency histogram bounds.
var HydrationSecondsBuckets = []float64{0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.25, 0.5, 1}

// PhaseMetric returns the histogram name of a pipeline phase span
// (e.g. PhaseMetric("generalize") = "modelgen_phase_generalize_seconds").
func PhaseMetric(phase string) string { return "modelgen_phase_" + phase + "_seconds" }

// CandidateBuckets are the fan-out histogram bounds: candidate sets
// are small (|A_m| <= t² for t tasks) and the low end is where the
// learner's branching factor lives.
var CandidateBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// LiveBuckets are the working-set-size histogram bounds.
var LiveBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// RunSecondsBuckets are the run-duration histogram bounds (doubling
// from 5 ms to ~10 s, the paper's reported range).
var RunSecondsBuckets = []float64{0.005, 0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28, 2.56, 5.12, 10.24}

// PhaseSecondsBuckets are the default phase-span histogram bounds:
// the shared µs-to-seconds latency layout. A candidates pass over one
// period can be single-digit microseconds while a backlogged online
// session can spend seconds in one phase, so the full latency range
// applies (the old fixed 100µs floor saturated at both ends).
var PhaseSecondsBuckets = DefLatencyBuckets

// metricsObserver bridges events into a Registry.
type metricsObserver struct {
	reg *Registry

	periods, skipped, messages, spawned, pruned, merges, relaxations *Counter
	runs, provSteps                                                  *Counter
	live, peak                                                       *Gauge
	candidates, livePerPeriod, runSeconds                            *Histogram

	mu       sync.Mutex
	pipeline map[string]*Counter   // stage/name -> counter, created on demand
	phases   map[string]*Histogram // phase -> seconds histogram, created on demand
}

// NewMetricsObserver returns an Observer that maintains the
// modelgen_* metrics in reg with the default bucket layouts.
// Instruments are created eagerly so a scrape before the first event
// already shows the full catalogue.
func NewMetricsObserver(reg *Registry) Observer {
	return &metricsObserver{
		reg:           reg,
		periods:       reg.Counter(MetricPeriods, "periods processed by the learner"),
		skipped:       reg.Counter(MetricPeriodsSkipped, "periods skipped because they provably could not change the model"),
		messages:      reg.Counter(MetricMessages, "message occurrences of processed periods"),
		spawned:       reg.Counter(MetricSpawned, "hypotheses created by generalization"),
		pruned:        reg.Counter(MetricPruned, "hypotheses removed by pruning, at the period end or subsumed after a message"),
		merges:        reg.Counter(MetricMerges, "heuristic least-upper-bound merges"),
		relaxations:   reg.Counter(MetricRelaxations, "entries relaxed by end-of-period tests"),
		runs:          reg.Counter(MetricRuns, "completed learning runs"),
		provSteps:     reg.Counter(MetricProvSteps, "provenance steps emitted for winning hypotheses"),
		live:          reg.Gauge(MetricLive, "live hypotheses after the last message or period end"),
		peak:          reg.Gauge(MetricPeak, "peak working-set size"),
		candidates:    reg.Histogram(MetricCandidates, "timing-feasible candidate pairs per message", CandidateBuckets),
		livePerPeriod: reg.Histogram(MetricLivePerPeriod, "live hypotheses at each period end", LiveBuckets),
		runSeconds:    reg.Histogram(MetricRunSeconds, "learning-run wall time in seconds", RunSecondsBuckets),
		pipeline:      map[string]*Counter{},
		phases:        map[string]*Histogram{},
	}
}

func (m *metricsObserver) OnMessageProcessed(e MessageProcessed) {
	m.candidates.Observe(float64(e.Candidates))
	m.live.Set(int64(e.Live))
	m.peak.SetMax(int64(e.Live))
}

func (m *metricsObserver) OnPeriodEnd(e PeriodEnd) {
	m.periods.Inc()
	if e.Skipped {
		m.skipped.Inc()
	}
	m.messages.Add(int64(e.Messages))
	m.spawned.Add(int64(e.Children))
	m.merges.Add(int64(e.Merges))
	m.pruned.Add(int64(e.Subsumed + e.Dropped))
	m.relaxations.Add(int64(e.Relaxations))
	m.live.Set(int64(e.Live))
	m.peak.SetMax(int64(e.Live))
	m.livePerPeriod.Observe(float64(e.Live))
}

func (m *metricsObserver) OnRunEnd(e RunEnd) {
	m.runs.Inc()
	m.runSeconds.Observe(time.Duration(e.ElapsedNS).Seconds())
}

func (m *metricsObserver) OnPipeline(e Pipeline) {
	key := e.Stage + "/" + e.Name
	m.mu.Lock()
	c, ok := m.pipeline[key]
	if !ok {
		c = m.reg.Counter(fmt.Sprintf("modelgen_%s_%s_total", e.Stage, e.Name),
			fmt.Sprintf("pipeline stage %q quantity %q", e.Stage, e.Name))
		m.pipeline[key] = c
	}
	m.mu.Unlock()
	c.Add(e.Value)
}

func (m *metricsObserver) OnProvenance(Provenance) { m.provSteps.Inc() }

func (m *metricsObserver) OnSpan(e SpanEnd) {
	m.mu.Lock()
	h, ok := m.phases[e.Phase]
	if !ok {
		h = m.reg.HistogramWith(HistogramOpts{
			Name:    PhaseMetric(e.Phase),
			Help:    fmt.Sprintf("wall time of the %q pipeline phase in seconds", e.Phase),
			Buckets: PhaseSecondsBuckets,
		})
		m.phases[e.Phase] = h
	}
	m.mu.Unlock()
	h.Observe(time.Duration(e.ElapsedNS).Seconds())
}

// RuntimeMetrics registers a scrape hook publishing Go runtime health
// into reg — the "is the process healthy" series a /metrics scrape
// answers without reaching for pprof: go_goroutines,
// go_heap_alloc_bytes, go_gc_runs_total and
// go_gc_pause_seconds_total. Values refresh on every scrape/snapshot.
// Calling it on a nil registry, or again on the same one, is a no-op,
// so every layer that wants the series present (serve.New, a main,
// the pprof server) may call it defensively without stacking
// duplicate ReadMemStats hooks.
func RuntimeMetrics(reg *Registry) {
	if reg == nil || reg.runtimeHooked.Swap(true) {
		return
	}
	goroutines := reg.Gauge("go_goroutines", "current goroutine count")
	heap := reg.Gauge("go_heap_alloc_bytes", "bytes of allocated heap objects")
	gcRuns := reg.Gauge("go_gc_runs_total", "completed GC cycles")
	gcPause := reg.FloatGauge("go_gc_pause_seconds_total", "cumulative GC stop-the-world pause time in seconds")
	reg.AddScrapeHook(func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		goroutines.Set(int64(runtime.NumGoroutine()))
		heap.Set(int64(ms.HeapAlloc))
		gcRuns.Set(int64(ms.NumGC))
		gcPause.Set(float64(ms.PauseTotalNs) / 1e9)
	})
}
