package modelgen

import (
	"io"

	"github.com/blackbox-rt/modelgen/internal/bench"
	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/latency"
	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/reach"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
	"github.com/blackbox-rt/modelgen/internal/verify"
)

// Dependency values of the lattice V (Figure 3 of the paper).
type Value = lattice.Value

// The seven dependency values. Par (‖) is the lattice bottom, BiMaybe
// (↔?) the top.
const (
	Par      = lattice.Par
	Fwd      = lattice.Fwd
	Bwd      = lattice.Bwd
	Bi       = lattice.Bi
	FwdMaybe = lattice.FwdMaybe
	BwdMaybe = lattice.BwdMaybe
	BiMaybe  = lattice.BiMaybe
)

// Trace types: an execution trace is a sequence of periods, each
// holding task execution intervals and message occurrences.
type (
	Trace        = trace.Trace
	Period       = trace.Period
	Message      = trace.Message
	Event        = trace.Event
	Interval     = trace.Interval
	TraceBuilder = trace.Builder
)

// Event kinds for raw event streams.
const (
	TaskStart  = trace.TaskStart
	TaskEnd    = trace.TaskEnd
	MsgRise    = trace.MsgRise
	MsgFall    = trace.MsgFall
	PeriodMark = trace.PeriodMark
)

// NewTraceBuilder starts an empty trace over the predefined task set.
func NewTraceBuilder(tasks []string) *TraceBuilder { return trace.NewBuilder(tasks) }

// TraceFromEvents assembles a trace from a raw timestamped event
// stream with PeriodMark delimiters.
func TraceFromEvents(tasks []string, events []Event) (*Trace, error) {
	return trace.FromEvents(tasks, events)
}

// TraceFromEventsPeriodic assembles a trace from an unmarked event
// stream by segmenting it into fixed-length periods (the typical shape
// of a raw logging-device capture).
func TraceFromEventsPeriodic(tasks []string, events []Event, origin, periodLen int64) (*Trace, error) {
	return trace.FromEventsPeriodic(tasks, events, origin, periodLen)
}

// ReadTrace parses the text trace format; WriteTrace emits it.
func ReadTrace(r io.Reader) (*Trace, error)    { return trace.Read(r) }
func WriteTrace(w io.Writer, tr *Trace) error  { return trace.Write(w, tr) }
func ReadTraceString(s string) (*Trace, error) { return trace.ReadString(s) }

// ReadTraceObserved parses the text format and reports parsing
// observability (events read, periods segmented, malformed input) to
// the observer.
func ReadTraceObserved(r io.Reader, o Observer) (*Trace, error) { return trace.ReadObserved(r, o) }

// ReadTraceJSON and WriteTraceJSON use the JSON wire format (traces
// also implement json.Marshaler/Unmarshaler directly).
func ReadTraceJSON(r io.Reader) (*Trace, error)   { return trace.ReadJSON(r) }
func WriteTraceJSON(w io.Writer, tr *Trace) error { return trace.WriteJSON(w, tr) }

// PaperTrace returns the worked-example trace of Figure 2 of the
// paper.
func PaperTrace() *Trace { return trace.PaperFigure2() }

// Dependency-function types.
type (
	DepFunc         = depfunc.DepFunc
	TaskSet         = depfunc.TaskSet
	Pair            = depfunc.Pair
	CandidatePolicy = depfunc.CandidatePolicy
)

// NewTaskSet builds the ordered predefined task set T.
func NewTaskSet(names []string) (*TaskSet, error) { return depfunc.NewTaskSet(names) }

// ParseDepTable parses the square table rendering of a dependency
// function (the format used in the paper's figures and by
// DepFunc.Table).
func ParseDepTable(s string) (*DepFunc, error) { return depfunc.ParseTable(s) }

// Match reports whether the dependency function matches the period
// (the paper's matching function M).
func Match(d *DepFunc, p *Period, pol CandidatePolicy) bool { return depfunc.Match(d, p, pol) }

// MatchTrace reports whether d matches every period; on failure it
// also returns the index of the first failing period.
func MatchTrace(d *DepFunc, tr *Trace, pol CandidatePolicy) (bool, int) {
	return depfunc.MatchTrace(d, tr, pol)
}

// Learner types.
type (
	LearnOptions = learner.Options
	LearnResult  = learner.Result
	LearnStats   = learner.Stats
)

// Learner errors.
var (
	ErrNoHypothesis      = learner.ErrNoHypothesis
	ErrTooManyHypotheses = learner.ErrTooManyHypotheses
	ErrNoProvenance      = learner.ErrNoProvenance
	// ErrVerifyUnavailable is returned by OnlineLearner.Result when
	// LearnOptions.VerifyResults is set without
	// LearnOptions.RetainPeriods: an online session has no trace to
	// verify against unless it retains one.
	ErrVerifyUnavailable = learner.ErrVerifyUnavailable
)

// ProvenanceStep is one recorded generalization step of a learned
// hypothesis's derivation chain. Enable recording with
// LearnOptions.Provenance and query chains with LearnResult.Explain /
// LearnResult.Provenance; render steps with Step.Format.
type ProvenanceStep = learner.ProvStep

// Learn runs the generalization algorithm (Section 3 of the paper)
// over the trace: exact when opt.Bound <= 0, bounded heuristic
// otherwise.
func Learn(tr *Trace, opt LearnOptions) (*LearnResult, error) { return learner.Learn(tr, opt) }

// LearnExact runs the exact (exponential) algorithm.
func LearnExact(tr *Trace, pol CandidatePolicy) (*LearnResult, error) {
	return learner.LearnExact(tr, pol)
}

// LearnBounded runs the heuristic with the given bound.
func LearnBounded(tr *Trace, bound int, pol CandidatePolicy) (*LearnResult, error) {
	return learner.LearnBounded(tr, bound, pol)
}

// OnlineLearner is the incremental learner: feed periods as a logging
// device captures them and snapshot the hypothesis set at any time.
type OnlineLearner = learner.Online

// NewOnlineLearner starts an incremental learning session.
func NewOnlineLearner(tasks []string, opt LearnOptions) (*OnlineLearner, error) {
	return learner.NewOnline(tasks, opt)
}

// Design-model and simulation types.
type (
	Model      = model.Model
	ModelTask  = model.Task
	ModelEdge  = model.Edge
	SimOptions = sim.Options
	SimOutput  = sim.Output
)

// Node kinds for design models.
const (
	Regular     = model.Regular
	Disjunction = model.Disjunction
	Conjunction = model.Conjunction
)

// Built-in models: the paper's Figure 1 example, the 18-task GM-style
// case study (single-ECU and distributed over four ECUs) and its
// 7-task exact-tractable subsystem.
func Figure1Model() *Model            { return model.Figure1() }
func GMStyleModel() *Model            { return model.GMStyle() }
func GMStyleDistributedModel() *Model { return model.GMStyleDistributed() }
func GMStyleLiteModel() *Model        { return model.GMStyleLite() }

// Simulate executes a design model on the OSEK/CAN substrates and
// returns the observable bus trace plus ground-truth oracle data.
func Simulate(m *Model, opt SimOptions) (*SimOutput, error) { return sim.Run(m, opt) }

// Verification types.
type (
	VerifyReport     = verify.Report
	DesignComparison = verify.DesignComparison
)

// Analyze summarizes a learned dependency function (node
// classification, dependency counts, state-space reduction).
func Analyze(d *DepFunc) VerifyReport { return verify.Analyze(d) }

// DisjunctionNodes and ConjunctionNodes classify tasks from a learned
// model; Determines and DependsOn query unconditional dependencies.
func DisjunctionNodes(d *DepFunc) []string    { return verify.DisjunctionNodes(d) }
func ConjunctionNodes(d *DepFunc) []string    { return verify.ConjunctionNodes(d) }
func Determines(d *DepFunc, a, b string) bool { return verify.Determines(d, a, b) }
func DependsOn(d *DepFunc, a, b string) bool  { return verify.DependsOn(d, a, b) }

// Mode types: observed operation modes of the system.
type (
	Mode       = verify.Mode
	ModeReport = verify.ModeReport
)

// Modes enumerates the distinct operation modes (co-executing task
// sets) observed in the trace, most frequent first.
func Modes(tr *Trace) []Mode { return verify.Modes(tr) }

// AnalyzeModes relates the observed modes to a learned dependency
// function (pass nil to only enumerate).
func AnalyzeModes(tr *Trace, d *DepFunc) ModeReport { return verify.AnalyzeModes(tr, d) }

// Reachability analysis over the per-period completion state space.
type ReachResult = reach.Result

// ExploreStateSpace counts the completion states a reachability-based
// model checker must explore under the learned dependencies, against
// the pessimistic 2^n baseline (the paper's state-space-reduction
// claim made concrete).
func ExploreStateSpace(d *DepFunc) (ReachResult, error) { return reach.Explore(d) }

// ProveNeverCompletesBefore checks by explicit-state reachability that
// task `done` can never complete while `notDone` has not. It returns
// proved = true when no such state is reachable; otherwise a witness
// state is returned.
func ProveNeverCompletesBefore(d *DepFunc, done, notDone string) (proved bool, witness []string, err error) {
	q, err := reach.CompletedWithout(d, done, notDone)
	if err != nil {
		return false, nil, err
	}
	reachable, w, err := reach.Reachable(d, q)
	return !reachable && err == nil, w, err
}

// Latency-analysis types.
type (
	LatencyPath       = latency.Path
	LatencyBreakdown  = latency.Breakdown
	LatencyComparison = latency.Comparison
)

// PathLatency bounds the end-to-end latency of a task/message chain;
// pass d == nil for the pessimistic holistic bound.
func PathLatency(m *Model, p LatencyPath, d *DepFunc, bitRate int64) (*LatencyBreakdown, error) {
	return latency.PathLatency(m, p, d, bitRate)
}

// CompareLatency computes the pessimistic and dependency-informed
// bounds for the path.
func CompareLatency(m *Model, p LatencyPath, d *DepFunc, bitRate int64) (*LatencyComparison, error) {
	return latency.Compare(m, p, d, bitRate)
}

// Observability re-exports: the metrics registry, the structured
// run-trace (Observer + typed events), and the pprof/metrics debug
// server. See internal/obs for the event schema and metric
// catalogue.
type (
	Observer        = obs.Observer
	NopObserver     = obs.NopObserver
	ObsEvent        = obs.Event
	EventRecorder   = obs.Recorder
	JSONLObserver   = obs.JSONLSink
	MetricsRegistry = obs.Registry
	MetricsSnapshot = obs.Snapshot
	DebugServer     = obs.DebugServer

	MessageProcessedEvent = obs.MessageProcessed
	PeriodEndEvent        = obs.PeriodEnd
	RunEndEvent           = obs.RunEnd
	PipelineEvent         = obs.Pipeline
	ProvenanceEvent       = obs.Provenance
	SpanEvent             = obs.SpanEnd
)

// JSONLFileSink is a JSONL event sink writing to a buffered file: the
// -events flag of the CLI tools. Close flushes and reports the first
// error of the write path; call it on every exit (including fatal
// ones) so a partial stream is still analyzable.
type JSONLFileSink = obs.FileSink

// OpenJSONLFile creates (truncating) a buffered JSONL event sink at
// path.
func OpenJSONLFile(path string) (*JSONLFileSink, error) { return obs.OpenFileSink(path) }

// ObsSpan times one pipeline phase; StartObsSpan on a nil observer
// returns a no-op span, so callers need no nil checks.
type ObsSpan = obs.Span

// StartObsSpan starts timing a phase; sp.End() emits the span event.
func StartObsSpan(o Observer, phase string) ObsSpan { return obs.StartSpan(o, phase) }

// NewEventRecorder returns an observer capturing every event for
// assertions and inspection.
func NewEventRecorder() *EventRecorder { return obs.NewRecorder() }

// NewJSONLObserver returns an observer writing one JSON object per
// event to w (the offline-analysis format of bblearn -events).
func NewJSONLObserver(w io.Writer) *JSONLObserver { return obs.NewJSONLSink(w) }

// ParseEventJSONL decodes a JSONL event stream back into typed
// events.
func ParseEventJSONL(r io.Reader) ([]ObsEvent, error) { return obs.ParseJSONL(r) }

// NewMetricsRegistry returns an empty dependency-free metrics
// registry with Prometheus-text and JSON exposition.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewMetricsObserver returns an observer maintaining the modelgen_*
// metric catalogue in the registry.
func NewMetricsObserver(reg *MetricsRegistry) Observer { return obs.NewMetricsObserver(reg) }

// CombineObservers fans events out to several observers; it returns
// nil when none remain so the allocation-free nil-observer fast path
// is preserved.
func CombineObservers(os ...Observer) Observer { return obs.NewMulti(os...) }

// StartDebugServer serves net/http/pprof under /debug/pprof/ and, if
// reg is non-nil, the registry at /metrics. Pass ":0" to pick a free
// port; the bound address is in the returned server's Addr.
func StartDebugServer(addr string, reg *MetricsRegistry) (*DebugServer, error) {
	return obs.StartDebugServer(addr, reg)
}

// Benchmark-telemetry re-exports: the versioned BENCH_<label>.json
// schema written and compared by cmd/bbbench (see internal/bench).
type (
	BenchFile       = bench.File
	BenchRun        = bench.Run
	BenchHost       = bench.Host
	BenchSample     = bench.Sample
	BenchRegression = bench.Regression
)

// BenchSchemaVersion is the current BENCH file schema version.
const BenchSchemaVersion = bench.SchemaVersion

// NewBenchFile returns an empty benchmark file stamped with the
// schema version, host metadata and creation time.
func NewBenchFile(label string) *BenchFile { return bench.New(label) }

// ReadBenchFile parses and validates a BENCH_<label>.json file.
func ReadBenchFile(path string) (*BenchFile, error) { return bench.ReadFile(path) }

// BenchMeasure runs fn reps times, sampling wall time and
// runtime.ReadMemStats allocation deltas per repetition.
func BenchMeasure(reps int, fn func()) []BenchSample { return bench.Measure(reps, fn) }

// BenchSummarize folds samples into a Run (median/p95 wall time,
// median allocation counts).
func BenchSummarize(name string, bound int, samples []BenchSample) BenchRun {
	return bench.Summarize(name, bound, samples)
}

// BenchCompare reports the run metrics of current that regressed
// beyond threshold (0.10 = 10%) relative to baseline.
func BenchCompare(baseline, current *BenchFile, threshold float64) []BenchRegression {
	return bench.Compare(baseline, current, threshold)
}

// ParseBenchThreshold parses "10%" or "0.1" into a fraction.
func ParseBenchThreshold(s string) (float64, error) { return bench.ParseThreshold(s) }

// Case-study configuration re-exports (see EXPERIMENTS.md).
const (
	CaseStudyPeriods = casestudy.Periods
	CaseStudySeed    = casestudy.Seed
)

// CaseStudyBounds is the bound column of the paper's runtime table.
func CaseStudyBounds() []int { return append([]int(nil), casestudy.Bounds...) }

// CaseStudyPolicy returns the candidate policy of the named
// configuration ("full" or "lite").
func CaseStudyPolicy(lite bool) CandidatePolicy {
	if lite {
		return casestudy.LitePolicy()
	}
	return casestudy.FullPolicy()
}
