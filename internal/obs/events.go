package obs

// Event is the union of the typed events an Observer receives. Every
// event type is a small value struct; events are passed by value so
// that observer calls never force heap allocation on the emitting
// path.
type Event interface {
	// Kind returns the stable schema name of the event ("period_end",
	// "span", ...), used by the JSONL sink and the Recorder's filtering
	// helpers.
	Kind() string
}

// MessageProcessed closes the generalization step for one message
// occurrence: Candidates is the size of the timing-feasible
// sender/receiver candidate set A_m, Live the working-set size after
// the step.
type MessageProcessed struct {
	Period     int    `json:"period"`
	Index      int    `json:"index"`
	ID         string `json:"id"`
	Candidates int    `json:"candidates"`
	Live       int    `json:"live"`
}

// PeriodEnd closes one period with its counters: Messages processed,
// Children created by generalization (duplicates excluded), bounded
// Merges, hypotheses Subsumed after a message (exact mode only),
// entries relaxed by the end-of-period tests, Dropped by the
// end-of-period prune, and the Live survivors with their weight range.
// Skipped marks a period that provably could not change the working
// set, either because the engine had already learned its shape or
// because it saturates the single live hypothesis, so it ran no
// generalization and its work counters are zero.
type PeriodEnd struct {
	Period      int  `json:"period"`
	Messages    int  `json:"messages"`
	Children    int  `json:"children"`
	Merges      int  `json:"merges"`
	Subsumed    int  `json:"subsumed"`
	Live        int  `json:"live"`
	Dropped     int  `json:"dropped"`
	WeightMin   int  `json:"weight_min"`
	WeightMax   int  `json:"weight_max"`
	Relaxations int  `json:"relaxations"`
	Skipped     bool `json:"skipped,omitempty"`
}

// RunEnd closes a batch learning run with its headline statistics.
type RunEnd struct {
	Periods   int   `json:"periods"`
	Messages  int   `json:"messages"`
	Final     int   `json:"final"`
	Peak      int   `json:"peak"`
	Merges    int   `json:"merges"`
	ElapsedNS int64 `json:"elapsed_ns"`
}

// Pipeline is the generic event of the non-learner stages: trace
// parsing, simulation, reachability, mode analysis. Stage names the
// emitting subsystem, Name the quantity, Value its magnitude; Label
// carries free-form context (e.g. a parse-error message).
type Pipeline struct {
	Stage string `json:"stage"`
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Label string `json:"label,omitempty"`
}

// Provenance records one generalization step of the derivation chain
// of a learned dependency entry d(Task1,Task2): the lattice
// transition From→To, the action that caused it ("assume" for a
// message generalization, "relax" for an end-of-period conditional
// test, "merge" for a bounded least-upper-bound merge), and — for
// assume steps — the message occurrence and the candidate
// (sender, receiver) pair. Index is the message index within the
// period, or -1 for end-of-period steps. Emitted only when
// provenance recording is enabled on the learner.
type Provenance struct {
	Period   int    `json:"period"`
	Index    int    `json:"index"`
	Msg      string `json:"msg,omitempty"`
	Sender   string `json:"sender,omitempty"`
	Receiver string `json:"receiver,omitempty"`
	Task1    string `json:"task1"`
	Task2    string `json:"task2"`
	From     string `json:"from"`
	To       string `json:"to"`
	Action   string `json:"action"`
}

// SpanEnd closes one timed pipeline phase (see StartSpan): simulate,
// trace_parse, candidates, generalize, postprocess, verify. Spans let
// pprof flame graphs be cross-referenced with the logical phases of a
// run.
type SpanEnd struct {
	Phase     string `json:"phase"`
	ElapsedNS int64  `json:"elapsed_ns"`
}

func (MessageProcessed) Kind() string { return "message_processed" }
func (PeriodEnd) Kind() string        { return "period_end" }
func (RunEnd) Kind() string           { return "run_end" }
func (Pipeline) Kind() string         { return "pipeline" }
func (Provenance) Kind() string       { return "provenance" }
func (SpanEnd) Kind() string          { return "span" }

// Observer receives the typed events of a run. One method per event
// type keeps the emitting path free of interface boxing: passing a
// value struct to an interface method does not allocate, so a no-op
// implementation costs only the dynamic call.
//
// Implementations embed NopObserver to pick up no-op defaults for the
// events they do not care about.
type Observer interface {
	OnMessageProcessed(MessageProcessed)
	OnPeriodEnd(PeriodEnd)
	OnRunEnd(RunEnd)
	OnPipeline(Pipeline)
	OnProvenance(Provenance)
	OnSpan(SpanEnd)
}

// NopObserver ignores every event. Embed it to implement Observer
// partially.
type NopObserver struct{}

func (NopObserver) OnMessageProcessed(MessageProcessed) {}
func (NopObserver) OnPeriodEnd(PeriodEnd)               {}
func (NopObserver) OnRunEnd(RunEnd)                     {}
func (NopObserver) OnPipeline(Pipeline)                 {}
func (NopObserver) OnProvenance(Provenance)             {}
func (NopObserver) OnSpan(SpanEnd)                      {}

// Nop is the shared no-op observer.
var Nop Observer = NopObserver{}

// multi fans every event out to a fixed list of observers.
type multi []Observer

// NewMulti combines observers into one, dropping nils. It returns nil
// when nothing remains (so callers can keep the allocation-free
// nil-observer fast path) and the observer itself when only one
// remains.
func NewMulti(os ...Observer) Observer {
	kept := make(multi, 0, len(os))
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

func (m multi) OnMessageProcessed(e MessageProcessed) {
	for _, o := range m {
		o.OnMessageProcessed(e)
	}
}
func (m multi) OnPeriodEnd(e PeriodEnd) {
	for _, o := range m {
		o.OnPeriodEnd(e)
	}
}
func (m multi) OnRunEnd(e RunEnd) {
	for _, o := range m {
		o.OnRunEnd(e)
	}
}
func (m multi) OnPipeline(e Pipeline) {
	for _, o := range m {
		o.OnPipeline(e)
	}
}
func (m multi) OnProvenance(e Provenance) {
	for _, o := range m {
		o.OnProvenance(e)
	}
}
func (m multi) OnSpan(e SpanEnd) {
	for _, o := range m {
		o.OnSpan(e)
	}
}
