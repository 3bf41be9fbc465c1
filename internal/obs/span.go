package obs

import "time"

// Span times one pipeline phase. Obtain one from StartSpan, do the
// phase's work, then call End: the observer receives a SpanEnd event
// with the wall time, and the metrics bridge feeds it into the
// per-phase modelgen_phase_<phase>_seconds histogram.
//
// Span is a small value type: with a nil observer StartSpan returns
// the zero Span, never reads the clock, and End is a no-op, so
// instrumented code keeps the allocation-free nil-observer fast path.
type Span struct {
	o     Observer
	phase string
	start time.Time
}

// The canonical phase names of the pipeline, in execution order.
// StartSpan accepts any string, but sticking to these keeps the
// modelgen_phase_*_seconds catalogue stable across tools.
const (
	PhaseSimulate    = "simulate"     // design-model simulation (internal/sim)
	PhaseTraceParse  = "trace_parse"  // trace parsing / event segmentation
	PhaseCandidates  = "candidates"   // per-period candidate-pair enumeration
	PhaseGeneralize  = "generalize"   // per-message generalization sweep
	PhasePostprocess = "postprocess"  // end-of-period relax/unify/prune
	PhaseVerify      = "verify"       // result re-verification against the trace
	PhaseDriftVerify = "drift_verify" // served per-period drift-monitor check (internal/serve trace span)
)

// StartSpan begins timing the named phase against o. A nil observer
// yields an inert Span.
func StartSpan(o Observer, phase string) Span {
	if o == nil {
		return Span{}
	}
	return Span{o: o, phase: phase, start: time.Now()}
}

// End closes the span, emitting a SpanEnd event with the elapsed wall
// time. End on the zero Span does nothing.
func (s Span) End() {
	if s.o == nil {
		return
	}
	s.o.OnSpan(SpanEnd{Phase: s.phase, ElapsedNS: time.Since(s.start).Nanoseconds()})
}
