// Package learner implements the generalization algorithm of Feng et
// al., "Automatic Model Generation for Black Box Real-Time Systems"
// (DATE 2007, Section 3): message-guided generalization of dependency
// hypotheses over an execution trace, in both the exact (exponential)
// variant and the bounded heuristic variant with least-upper-bound
// merging.
//
// # Algorithm
//
// Learning starts from the set {d⊥} containing only the globally most
// specific hypothesis and handles one period at a time. For every
// message occurrence, the timing-feasible (sender, receiver) candidate
// pairs A_m are computed; every live hypothesis is extended by every
// candidate assumption that does not repeat an already-assumed pair
// (at most one message per ordered pair per period), generalizing the
// dependency function only as much as necessary. At the end of each
// period, a post-processing pass relaxes unconditional entries whose
// implication the period violated, removes the assumptions, unifies
// equal hypotheses and deletes redundant (non-most-specific) ones.
//
// A subtlety visible in the paper's worked example (tables d81–d85):
// when a new dependency is stamped in period k, the stamp must already
// account for periods 1..k-1 — if some earlier period executed the
// sender without the receiver, the minimal generalization consistent
// with all instances seen so far is the conditional →?/←?, not the
// unconditional →/←. The learner therefore carries a cumulative
// execution-violation history and chooses stamp values from it.
//
// # Heuristic
//
// With Options.Bound = b > 0 the learner keeps the working hypotheses
// in a list ordered by the Definition-8 weight; whenever an addition
// makes the list one longer than b, the two lightest hypotheses are
// replaced by their least upper bound. The result remains correct but
// is no longer guaranteed to be most specific. Runtime is
// O(m·b² + m·b·t²) for m messages and t tasks.
//
// # Architecture
//
// The period-processing core — candidate enumeration, per-message
// generalization, end-of-period post-processing — lives in
// internal/engine; this package is the result-facing front-end. Learn
// and Online both drive the same engine, which is what guarantees
// their equivalence.
package learner

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/engine"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// ErrNoHypothesis is returned when the hypothesis set becomes empty:
// either the trace violates the assumed model of computation, or the
// generalization language cannot express the observed behaviour
// (Section 3.1). It is the engine's error re-exported, so errors.Is
// works across both layers.
var ErrNoHypothesis = engine.ErrNoHypothesis

// ErrTooManyHypotheses is returned by the exact algorithm when the
// working set exceeds Options.MaxHypotheses.
var ErrTooManyHypotheses = engine.ErrTooManyHypotheses

// ErrVerifyUnavailable is returned by Online.Result when
// Options.VerifyResults is set but the session retained no periods to
// verify against (Options.RetainPeriods is zero). Batch Learn always
// has the full trace and never returns it.
var ErrVerifyUnavailable = errors.New(
	"learner: VerifyResults needs retained periods in an online session (set Options.RetainPeriods)")

// Options configures a learning run.
type Options struct {
	// Bound is the heuristic's maximum working-set size b. Zero (or
	// negative) selects the exact algorithm.
	Bound int

	// Policy controls timing-based candidate-pair computation.
	Policy depfunc.CandidatePolicy

	// MaxHypotheses aborts the exact algorithm with
	// ErrTooManyHypotheses when the working set grows beyond this
	// size. Zero means unlimited.
	MaxHypotheses int

	// VerifyResults re-checks every final hypothesis against the full
	// trace with the matching function M and drops any that fail
	// (counted in Stats.DroppedUnsound). The exact algorithm never
	// produces unsound hypotheses; bounded merging can in rare
	// adversarial traces. In an online session verification needs
	// RetainPeriods > 0, and re-checks against the retained window;
	// Result returns ErrVerifyUnavailable otherwise.
	VerifyResults bool

	// RetainPeriods makes an online session keep deep copies of the
	// most recent N consumed periods in a ring buffer, giving
	// Online.Result a trace to verify against (see VerifyResults).
	// Zero (the default) retains nothing. Ignored by batch Learn,
	// which always has the full trace.
	RetainPeriods int

	// Observer, when non-nil, receives the structured run-trace:
	// per-message candidate fan-out and live counts, one period_end
	// per period with its spawn/merge/subsume/prune counters, and
	// phase timing spans. Every emit site is nil-guarded, so a nil
	// Observer adds no allocations to the hot path (verified by
	// TestNopObserverZeroAlloc). Use obs.NewMulti to attach several
	// sinks at once.
	Observer obs.Observer

	// Provenance enables the per-hypothesis audit trail: every
	// lattice transition of every working hypothesis is recorded with
	// its cause (message generalization, end-of-period relaxation,
	// heuristic merge), queryable afterwards via Result.Explain and
	// Result.Provenance and emitted as "provenance" events for the
	// winning hypothesis when an Observer is attached. Off by
	// default: recording allocates one cons cell per changed entry,
	// and the default path must stay allocation-free.
	Provenance bool

	// Negatives lists periods the system is known to be unable to
	// produce (forbidden behaviours supplied by the analyst — the
	// version-space extension the paper sketches as future work).
	// Every returned hypothesis is guaranteed NOT to match any of
	// them; hypotheses matching a negative are discarded from the
	// final most-specific set (Stats.NegativeRejections counts them).
	//
	// The filter runs only on the final set, not incrementally: the
	// matching function M is not monotone in the lattice order (a
	// generalization step can introduce an unconditional entry that
	// rejects a negative its ancestor matched), so discarding a
	// matching ancestor mid-run could lose consistent descendants.
	Negatives []*trace.Period
}

// engineConfig translates the engine-facing subset of the options.
func (opt Options) engineConfig() engine.Config {
	return engine.Config{
		Bound:         opt.Bound,
		Policy:        opt.Policy,
		MaxHypotheses: opt.MaxHypotheses,
		Observer:      opt.Observer,
		Provenance:    opt.Provenance,
	}
}

// Stats instruments a learning run. It is populated even without an
// Observer, so callers get the headline numbers without consuming the
// full event stream. It is the engine's Stats type: the engine
// maintains the per-period counters, this package fills in the
// result-assembly fields.
type Stats = engine.Stats

// ProvStep is one recorded generalization step of a hypothesis's
// derivation chain (see Options.Provenance). Format renders it for
// humans.
type ProvStep = hypothesis.Step

// ErrNoProvenance is returned by Result.Explain when the run did not
// record provenance.
var ErrNoProvenance = errors.New("learner: provenance not recorded (set Options.Provenance)")

// Result is the outcome of a learning run.
type Result struct {
	// TaskSet is the predefined task set T of the trace.
	TaskSet *depfunc.TaskSet
	// Hypotheses is the returned set D*, sorted by ascending weight
	// (ties broken by matrix encoding for determinism). For the exact
	// algorithm this is the set of most specific hypotheses matching
	// the trace.
	Hypotheses []*depfunc.DepFunc
	// LUB is the pointwise least upper bound ⊔D*, the paper's
	// recommended single answer when the algorithm does not converge.
	LUB *depfunc.DepFunc
	// Converged reports whether exactly one hypothesis remained.
	Converged bool
	// Stats holds run instrumentation.
	Stats Stats

	// prov maps each returned dependency function to its recorded
	// derivation chain; nil unless Options.Provenance was set.
	prov map[*depfunc.DepFunc][]ProvStep
}

// Provenance returns the full derivation chain (oldest step first) of
// the i-th returned hypothesis, or nil when the run did not record
// provenance.
func (r *Result) Provenance(i int) []ProvStep {
	if r.prov == nil || i < 0 || i >= len(r.Hypotheses) {
		return nil
	}
	return r.prov[r.Hypotheses[i]]
}

// Explain answers "why did d(t1,t2) become what it is": it returns
// the chronological steps that changed entry (t1,t2) of the first
// (lightest, most specific) returned hypothesis. An empty chain with
// a nil error means the entry never left ‖. It fails with
// ErrNoProvenance when the run did not record provenance, or when a
// task name is unknown.
func (r *Result) Explain(t1, t2 string) ([]ProvStep, error) {
	if r.prov == nil {
		return nil, ErrNoProvenance
	}
	i, j := r.TaskSet.Index(t1), r.TaskSet.Index(t2)
	if i < 0 {
		return nil, fmt.Errorf("learner: unknown task %q", t1)
	}
	if j < 0 {
		return nil, fmt.Errorf("learner: unknown task %q", t2)
	}
	var out []ProvStep
	for _, s := range r.prov[r.Hypotheses[0]] {
		if s.I == i && s.J == j {
			out = append(out, s)
		}
	}
	return out, nil
}

// Learn runs the generalization algorithm over the trace. It is the
// batch form of the incremental Online learner and produces identical
// results.
func Learn(tr *trace.Trace, opt Options) (*Result, error) {
	t0 := time.Now()
	o, err := NewOnline(tr.Tasks, opt)
	if err != nil {
		return nil, err
	}
	for _, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			return nil, err
		}
	}
	// Extract the working set directly: the session ends here, so the
	// defensive clone of Online.Result is unnecessary.
	working := o.eng.Working()
	ds := make([]*depfunc.DepFunc, 0, len(working))
	var prov map[*depfunc.DepFunc][]ProvStep
	if opt.Provenance {
		prov = make(map[*depfunc.DepFunc][]ProvStep, len(working))
	}
	for _, h := range working {
		ds = append(ds, &h.D)
		if prov != nil {
			prov[&h.D] = h.Provenance()
		}
	}
	res, err := finish(o.eng.TaskSet(), tr, ds, opt, o.eng.Stats())
	if err != nil {
		return nil, err
	}
	res.prov = prov
	res.Stats.Elapsed = time.Since(t0)
	if opt.Observer != nil {
		if opt.Provenance {
			emitProvenance(opt.Observer, o.eng.TaskSet(), res.Provenance(0))
		}
		opt.Observer.OnRunEnd(obs.RunEnd{
			Periods:   res.Stats.Periods,
			Messages:  res.Stats.Messages,
			Final:     res.Stats.Final,
			Peak:      res.Stats.Peak,
			Merges:    res.Stats.Merges,
			ElapsedNS: res.Stats.Elapsed.Nanoseconds(),
		})
	}
	return res, nil
}

// emitProvenance publishes the winning hypothesis's derivation chain
// as "provenance" events, task indices resolved to names.
func emitProvenance(obsv obs.Observer, ts *depfunc.TaskSet, steps []ProvStep) {
	for _, s := range steps {
		e := obs.Provenance{
			Period: s.Period, Index: s.Msg, Msg: s.MsgID,
			Task1: ts.Name(s.I), Task2: ts.Name(s.J),
			From: s.Old.String(), To: s.New.String(), Action: s.Action,
		}
		if s.S >= 0 {
			e.Sender, e.Receiver = ts.Name(s.S), ts.Name(s.R)
		}
		obsv.OnProvenance(e)
	}
}

// LearnExact runs the exact (exponential) algorithm.
func LearnExact(tr *trace.Trace, pol depfunc.CandidatePolicy) (*Result, error) {
	return Learn(tr, Options{Policy: pol})
}

// LearnBounded runs the heuristic with the given bound.
func LearnBounded(tr *trace.Trace, bound int, pol depfunc.CandidatePolicy) (*Result, error) {
	return Learn(tr, Options{Bound: bound, Policy: pol})
}

// finish assembles the Result from the surviving dependency
// functions. tr may be nil (incremental sessions without retained
// periods), in which case VerifyResults is skipped.
func finish(ts *depfunc.TaskSet, tr *trace.Trace, ds []*depfunc.DepFunc,
	opt Options, stats Stats) (*Result, error) {

	if len(opt.Negatives) > 0 {
		kept := ds[:0]
		for _, d := range ds {
			consistent := true
			for _, neg := range opt.Negatives {
				if depfunc.Match(d, neg, opt.Policy) {
					consistent = false
					break
				}
			}
			if consistent {
				kept = append(kept, d)
			} else {
				stats.NegativeRejections++
			}
		}
		ds = kept
	}
	if opt.VerifyResults && tr != nil {
		sp := obs.StartSpan(opt.Observer, obs.PhaseVerify)
		kept := ds[:0]
		for _, d := range ds {
			if ok, _ := depfunc.MatchTrace(d, tr, opt.Policy); ok {
				kept = append(kept, d)
			} else {
				stats.DroppedUnsound++
			}
		}
		ds = kept
		sp.End()
	}
	if len(ds) == 0 {
		return nil, ErrNoHypothesis
	}
	sort.SliceStable(ds, func(a, b int) bool {
		wa, wb := ds[a].Weight(), ds[b].Weight()
		if wa != wb {
			return wa < wb
		}
		return ds[a].CompareKey(ds[b]) < 0
	})
	stats.Final = len(ds)
	return &Result{
		TaskSet:    ts,
		Hypotheses: ds,
		LUB:        depfunc.JoinAll(ds),
		Converged:  len(ds) == 1,
		Stats:      stats,
	}, nil
}
