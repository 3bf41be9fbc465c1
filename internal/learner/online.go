package learner

import (
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/engine"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// Online is the incremental form of the learner: the paper's algorithm
// processes one period at a time and never revisits earlier instances,
// so a logging device can feed periods as they are captured and read
// out the current hypothesis set at any time.
//
//	o, _ := learner.NewOnline(tasks, learner.Options{Bound: 32})
//	for p := range periods {
//	    if err := o.AddPeriod(p); err != nil { ... }
//	}
//	res, _ := o.Result()
//
// Online and the batch Learn function produce identical results for
// the same sequence of periods (guaranteed by tests): both are thin
// front-ends over the same internal/engine session.
//
// Options.VerifyResults in an online session re-checks the snapshot
// against the retained-period window, which exists only when
// Options.RetainPeriods > 0; without retained periods Result fails
// with ErrVerifyUnavailable rather than silently skipping the check.
//
// With Options.Observer set, AddPeriod emits the structured run-trace
// (MessageProcessed per message, PeriodEnd with the period's counters,
// phase spans); the RunEnd event is only emitted by the batch Learn,
// since an incremental session has no defined end.
type Online struct {
	eng *engine.Engine
	opt Options
	err error

	// retained is the ring buffer of the last Options.RetainPeriods
	// consumed periods (deep copies, oldest first after reordering by
	// retainedTrace). next is the ring write cursor.
	retained []*trace.Period
	next     int
}

// NewOnline starts an incremental learning session over the predefined
// task set.
func NewOnline(tasks []string, opt Options) (*Online, error) {
	ts, err := depfunc.NewTaskSet(tasks)
	if err != nil {
		return nil, err
	}
	return &Online{eng: engine.New(ts, opt.engineConfig()), opt: opt}, nil
}

// TaskSet returns the session's task set.
func (o *Online) TaskSet() *depfunc.TaskSet { return o.eng.TaskSet() }

// Err returns the sticky error of the session, if any. Once a period
// fails, the session is dead: the hypothesis set no longer reflects a
// consistent prefix of the instance stream.
func (o *Online) Err() error { return o.err }

// Stats returns a snapshot of the instrumentation counters.
func (o *Online) Stats() Stats { return o.eng.Stats() }

// WorkingSetSize returns the current number of live hypotheses.
func (o *Online) WorkingSetSize() int { return o.eng.WorkingSetSize() }

// Generation returns the engine's working-set generation: it moves
// whenever AddPeriod or ApplyDelta may have changed the working set,
// and holds still across a period the engine skipped. Everything
// Result reports except Stats is a function of the working set (and,
// with VerifyResults, of the retained window), so a reader may reuse
// what it derived from a Result while Generation is unchanged. It is
// not part of a Snapshot: a restored session starts again at zero.
func (o *Online) Generation() uint64 { return o.eng.Generation() }

// LUB returns the pointwise least upper bound of the current working
// set as a fresh dependency function the caller may keep: the live
// model a drift monitor checks each newly learned period against.
func (o *Online) LUB() *depfunc.DepFunc {
	working := o.eng.Working()
	ds := make([]*depfunc.DepFunc, len(working))
	for i, h := range working {
		ds[i] = &h.D
	}
	return depfunc.JoinAll(ds)
}

// RetainedPeriods returns the number of periods currently held in the
// verification ring buffer (at most Options.RetainPeriods).
func (o *Online) RetainedPeriods() int { return len(o.retained) }

// AddPeriod consumes one instance: message-guided generalization over
// the period's messages followed by the end-of-period post-processing
// (both delegated to the engine), then retention bookkeeping.
func (o *Online) AddPeriod(p *trace.Period) error {
	if o.err != nil {
		return o.err
	}
	if err := o.eng.ProcessPeriod(p); err != nil {
		o.err = err
		return o.err
	}
	if o.opt.RetainPeriods > 0 {
		cp := p.Clone()
		if len(o.retained) < o.opt.RetainPeriods {
			o.retained = append(o.retained, cp)
		} else {
			o.retained[o.next] = cp
			o.next = (o.next + 1) % o.opt.RetainPeriods
		}
	}
	return nil
}

// retainedTrace assembles the retained window into a trace, oldest
// period first, or nil when nothing is retained.
func (o *Online) retainedTrace() *trace.Trace {
	if len(o.retained) == 0 {
		return nil
	}
	tr := trace.New(o.eng.TaskSet().Names())
	// The ring wraps at next: [next..len) are the oldest entries.
	tr.Periods = append(tr.Periods, o.retained[o.next:]...)
	tr.Periods = append(tr.Periods, o.retained[:o.next]...)
	return tr
}

// Result snapshots the current hypothesis set. The session remains
// usable: further periods may be added and Result called again. The
// returned dependency functions are deep copies and, like the Stats
// value, never mutated by subsequent AddPeriod calls.
//
// With Options.VerifyResults set, the snapshot is re-checked against
// the retained-period window (Options.RetainPeriods); hypotheses
// failing the re-check are dropped and counted in
// Stats.DroppedUnsound. When verification is requested but no periods
// are retained, Result fails with ErrVerifyUnavailable — it never
// silently skips a requested check.
func (o *Online) Result() (*Result, error) {
	if o.err != nil {
		return nil, o.err
	}
	var verifyTr *trace.Trace
	if o.opt.VerifyResults {
		verifyTr = o.retainedTrace()
		if verifyTr == nil {
			return nil, ErrVerifyUnavailable
		}
	}
	working := o.eng.Working()
	ds := make([]*depfunc.DepFunc, 0, len(working))
	var prov map[*depfunc.DepFunc][]ProvStep
	if o.opt.Provenance {
		prov = make(map[*depfunc.DepFunc][]ProvStep, len(working))
	}
	for _, h := range working {
		d := h.D.Clone()
		ds = append(ds, d)
		if prov != nil {
			prov[d] = h.Provenance()
		}
	}
	res, err := finish(o.eng.TaskSet(), verifyTr, ds, o.opt, o.eng.Stats())
	if err != nil {
		return nil, err
	}
	res.prov = prov
	return res, nil
}
