// Package obs is the observability layer of the pipeline: a
// dependency-free metrics registry, a structured run-trace (the
// Observer interface with typed events), and helpers for runtime
// profiling (net/http/pprof plus a /metrics endpoint).
//
// The learner is the exponential heart of the reproduced paper
// (Section 3, Theorem 1), and its behaviour — hypothesis-set growth,
// candidate fan-out per message, merge pressure under a bound — is
// exactly what must be measured to scale it. Package obs makes a
// learning run observable without perturbing it: every emit site is
// guarded by a nil check, so the nil-observer hot path is
// allocation-free (benchmark-verified in internal/learner).
//
// # Event schema
//
// An Observer receives typed events. Each event type has a stable
// kind string used by the JSONL sink (one JSON object per line, the
// kind in the "event" field):
//
//	message_processed   {period, index, id, candidates, live}
//	period_end          {period, messages, children, merges, subsumed, live, dropped, weight_min, weight_max, relaxations, skipped?}
//	run_end             {periods, messages, final, peak, merges, elapsed_ns}
//	pipeline            {stage, name, value, label?}
//	provenance          {period, index, msg?, sender?, receiver?, task1, task2, from, to, action}
//	span                {phase, elapsed_ns}
//
// The learner emits the first three: one message_processed per
// generalized message occurrence, one period_end per period carrying
// that period's counters, and one run_end per batch run. A period the
// engine skips (it provably could not change the model) emits only its
// candidates span and a period_end with skipped set. The trace
// readers, the simulator and the conformance harness emit generic
// pipeline events such as stage "trace" / name "events_read".
// provenance events carry the derivation chain of the winning
// hypothesis when provenance recording is enabled on the learner
// (one event per generalization step, action "assume", "relax" or
// "merge"). span events time the pipeline phases (simulate,
// trace_parse, candidates, generalize, postprocess, verify — see
// StartSpan), so CPU profiles can be cross-referenced with logical
// phases. drift_verify is not an engine phase: it is the served trace
// span (a child of learn_period) around the drift monitor's check of
// each learned period.
//
// # Metric names
//
// NewMetricsObserver bridges events into a Registry under these
// names (the feeding event, or the histogram buckets, in
// parentheses):
//
//	modelgen_learner_periods_total              counter (period_end)
//	modelgen_learner_periods_skipped_total      counter (period_end skipped)
//	modelgen_learner_messages_total             counter (period_end messages)
//	modelgen_learner_hypotheses_spawned_total   counter (period_end children)
//	modelgen_learner_hypotheses_pruned_total    counter (period_end subsumed + dropped)
//	modelgen_learner_merges_total               counter (period_end merges)
//	modelgen_learner_relaxations_total          counter (period_end relaxations)
//	modelgen_learner_live_hypotheses            gauge (live of the last message_processed or period_end)
//	modelgen_learner_peak_hypotheses            gauge (maximum live seen)
//	modelgen_learner_candidates_per_message     histogram (1,2,3,4,6,8,12,16,24,32,48,64)
//	modelgen_learner_live_per_period            histogram (1,2,4,8,16,32,64,128,256)
//	modelgen_learner_runs_total                 counter (run_end)
//	modelgen_learner_run_seconds                histogram (5ms..10s, doubling)
//	modelgen_learner_provenance_steps_total     counter, one per provenance event
//	modelgen_<stage>_<name>_total               counter, one per pipeline stage/name
//	modelgen_phase_<phase>_seconds              histogram (1µs..10s), one per span phase
//
// The message, spawn, merge and prune counters advance once per
// period, so a period that fails part-way (and emits no period_end)
// does not reach them. The skipped counter over the periods counter is
// the skip ratio: the share of periods that provably could not change
// the model (a learned shape, or a single hypothesis the period
// saturates), which ran no generalization (and emitted no
// message_processed). modelgen_learner_candidates_per_message
// aggregates the per-message candidate fan-out |A_m| of the messages
// actually generalized — the driver of the O(m·b·t²) term of the
// heuristic's runtime — which is otherwise only visible per-event.
//
// RuntimeMetrics additionally publishes go_goroutines,
// go_heap_alloc_bytes, go_gc_runs_total and go_gc_pause_seconds_total,
// refreshed on every scrape.
//
// # Nil instruments
//
// A nil *Counter, *Gauge, *FloatGauge or *Histogram is a valid
// instrument whose updates do nothing and whose reads return zero, and
// the Registry constructors called on a nil *Registry return nil — the
// same idiom as the nil *Tracer. A layer built with an optional
// registry therefore resolves its instruments once, unconditionally,
// and updates them without an "if m != nil" guard at each call site;
// a nil instrument costs one pointer test and allocates nothing.
//
// # Exposition
//
// Registry.WritePrometheus emits the Prometheus text format,
// Registry.WriteJSON a JSON object keyed by metric name.
// Registry.Snapshot returns a point-in-time copy with a Diff method,
// the form used by tests and by before/after comparisons.
// StartDebugServer serves /metrics plus the standard /debug/pprof/
// endpoints for CPU, heap and goroutine profiling of long runs.
package obs
