// Package engine is the period-processing core of the learner: the
// candidate-enumeration, per-message generalization and end-of-period
// post-processing stages of Feng et al.'s algorithm (DATE 2007,
// Section 3), factored out of the batch/online front-ends so both
// drive the identical machinery.
//
// # Stage API
//
// An Engine holds the mutable run state (working hypothesis set,
// cumulative execution-violation history, statistics). Each period is
// consumed by three explicit stages:
//
//  1. EnumerateCandidates — timing-feasible (sender, receiver) pairs
//     per message, plus the live-suffix sets used to forget dead
//     assumptions early.
//  2. Generalize — the message-guided generalization pass: every live
//     hypothesis is extended by every admissible candidate
//     assumption, with heuristic least-upper-bound merging when a
//     bound is configured. Without a bound, every hypothesis another
//     one subsumes (a ⊑ function under a ⊆ assumption set) is
//     dropped after each message (prune.go's subsume).
//  3. Postprocess — end-of-period relaxation of violated
//     unconditional entries, assumption clearing, unification and
//     most-specific pruning, and the history update.
//
// ProcessPeriod composes the three in order and closes the period with
// a period_end event carrying its counters. Between stages 1 and 2 it
// skips a period that provably cannot change the working set, for
// either of two reasons (THEORY.md §3b): the period-shape memo
// (memo.go) holds its shape (its candidate lists and executed tasks),
// or the working set is a single hypothesis that the period saturates
// (fixedPoint). A skipped period runs neither stage 2 nor stage 3,
// applies its history update and closes with a period_end marked
// skipped. Driving the exported stages by hand bypasses both rules,
// and Postprocess empties the memo, since the memo never saw that
// period. Front-ends (internal/learner's Learn and Online) are thin
// wrappers that own result assembly and verification.
//
// # Sequential by design
//
// One Engine is one sequential pass, the paper's Algorithm 1: each
// message extends every live hypothesis by every candidate pair, and
// the children are gathered (deduplicated, and under a bound merged)
// in (parent, candidate-pair) order. The gather's order decides which
// hypotheses the bounded heuristic merges, so it stays on one
// goroutine. Parallelism lives one level up: the served system runs
// one engine per stream, each on its own owner goroutine.
//
// # Fingerprints
//
// All deduplication sites key on the 64-bit Zobrist fingerprints
// maintained incrementally by depfunc and hypothesis instead of the
// O(t²) canonical key strings. Unequal fingerprints prove unequal
// states; a fingerprint hit is confirmed with a full equality check
// before unifying, so a (cosmically unlikely) collision costs one
// comparison, never a wrong merge.
package engine

import (
	"errors"
	"fmt"
	"time"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// ErrNoHypothesis is returned when the hypothesis set becomes empty:
// either the trace violates the assumed model of computation, or the
// generalization language cannot express the observed behaviour
// (Section 3.1). The message keeps the historical "learner:" prefix:
// the error predates the engine split and is part of the public
// surface re-exported by internal/learner and the modelgen facade.
var ErrNoHypothesis = errors.New("learner: hypothesis set became empty")

// ErrTooManyHypotheses is returned by the exact algorithm when the
// working set exceeds Config.MaxHypotheses.
var ErrTooManyHypotheses = errors.New("learner: hypothesis set exceeded the configured maximum")

// Config configures an Engine. It is the engine-facing subset of the
// learner's Options; the front-ends translate.
type Config struct {
	// Bound is the heuristic's maximum working-set size b. Zero (or
	// negative) selects the exact algorithm.
	Bound int

	// Policy controls timing-based candidate-pair computation.
	Policy depfunc.CandidatePolicy

	// MaxHypotheses aborts the exact algorithm with
	// ErrTooManyHypotheses when the working set grows beyond this
	// size. Zero means unlimited. A period ProcessPeriod skips
	// (because it provably cannot change the working set) generates no
	// hypotheses, so it cannot trip the cap even where generalizing it
	// would have.
	MaxHypotheses int

	// Observer receives the structured run-trace; nil disables
	// emission at zero cost.
	Observer obs.Observer

	// Provenance enables per-hypothesis derivation recording.
	Provenance bool
}

// Stats instruments a run. The engine maintains the per-period
// counters; the front-ends fill in the result-assembly fields
// (Final, DroppedUnsound, NegativeRejections, Elapsed). In exact mode
// Peak is the post-subsumption peak: it is measured after each
// message's in-period subsumption, so it counts only hypotheses no
// other live one subsumes (the bounded mode does not subsume).
type Stats struct {
	Periods        int // periods processed
	Messages       int // message occurrences processed
	Candidates     int // timing-feasible candidate pairs summed over messages
	Children       int // hypotheses created by generalization
	Merges         int // heuristic least-upper-bound merges
	Relaxations    int // entries relaxed by end-of-period tests
	Peak           int // peak working-set size after a message
	Final          int // hypotheses in the returned set
	DroppedUnsound int // results dropped by verification
	// NegativeRejections counts final hypotheses discarded because
	// they matched a forbidden behaviour.
	NegativeRejections int
	// Elapsed is the wall time of the batch Learn call (zero for
	// Online.Result snapshots, which have no defined start).
	Elapsed time.Duration
}

// Engine is the period-processing core: the working hypothesis set
// D_cur, the cumulative execution-violation history and the run
// statistics. It runs on its caller's goroutine and is not safe for
// concurrent use.
type Engine struct {
	ts    *depfunc.TaskSet
	cfg   Config
	hist  []bool
	cur   []*hypothesis.Hypothesis
	stats Stats
	// base is the incremental-checkpoint capture baseline (delta.go).
	base deltaBase

	// seen is the dedup set reused (via Reset) by every message's
	// gather and by forgetDeadAssumptions; reuse keeps the hot loop
	// free of per-message allocations. Its table is allocated on the
	// first message, not here.
	seen hypothesis.Dedup
	// wl is the gather's worklist, reused message after message.
	wl workList
	// arena bump-allocates assumption cons cells and recycles
	// hypothesis headers for child generation, the gather's merges and
	// assumption forgetting. It is reset at the period boundary, right
	// after ClearAssumptions has severed every surviving reference.
	arena hypothesis.Arena

	// Prune scratch, grown on first use and reused message after
	// message and period after period (prune.go): the violation mask,
	// the survivor frontier, the counting-sort buckets, the sorted
	// period-end set, and the in-period subsumption's sort order, drop
	// marks and assumption bitset.
	relaxMask depfunc.ViolationMask
	frontier  depfunc.Frontier
	counts    []int
	sorted    []*hypothesis.Hypothesis
	order     []int
	drop      []bool
	asmBits   []uint64

	// subsumed counts the hypotheses the current period's in-period
	// subsumption dropped, for the period_end event. It is not a
	// Stats field: Stats is checkpointed, this is per-period only.
	subsumed int

	// memo holds the period shapes ProcessPeriod may skip (memo.go);
	// prev is the bounded mode's copy of the period-entry working set,
	// compared with the survivors to decide whether the period changed
	// anything. matcher is fixedPoint's assignment scratch. noSkip
	// turns both skip rules off for the differential tests.
	memo    shapeMemo
	prev    []*hypothesis.Hypothesis
	matcher depfunc.Matcher
	noSkip  bool

	// gen counts the steps that may have changed the working set
	// (Generation). It is not checkpointed: a restored engine starts
	// at zero.
	gen uint64
}

// newEngine returns an engine over ts and cfg with no working set
// yet; New and Restore fill in the session state.
func newEngine(ts *depfunc.TaskSet, cfg Config) *Engine {
	e := &Engine{ts: ts, cfg: cfg}
	e.wl = workList{bound: cfg.Bound, stats: &e.stats}
	return e
}

// New starts an engine session over the task set: the working set is
// {d⊥}.
func New(ts *depfunc.TaskSet, cfg Config) *Engine {
	e := newEngine(ts, cfg)
	bottom := hypothesis.Bottom(ts)
	if cfg.Provenance {
		bottom.EnableProvenance()
	}
	e.hist = make([]bool, ts.Len()*ts.Len())
	e.cur = []*hypothesis.Hypothesis{bottom}
	e.stats.Peak = 1
	e.resetDeltaBase()
	return e
}

// TaskSet returns the session's task set.
func (e *Engine) TaskSet() *depfunc.TaskSet { return e.ts }

// Stats returns a copy of the instrumentation counters. Stats holds
// only scalars, so the copy shares nothing with the engine.
func (e *Engine) Stats() Stats { return e.stats }

// Working returns the live hypothesis set (not a copy; callers must
// not mutate it).
func (e *Engine) Working() []*hypothesis.Hypothesis { return e.cur }

// WorkingSetSize returns the current number of live hypotheses.
func (e *Engine) WorkingSetSize() int { return len(e.cur) }

// Generation returns a counter that Generalize, Postprocess and
// ApplyPeriodDelta bump, and nothing else does: while it holds still,
// the working set is unchanged, so whatever a reader derived from it
// (the sorted result, its rendering) is still current. A skipped
// period does not bump it.
func (e *Engine) Generation() uint64 { return e.gen }

// ProcessPeriod consumes one instance: the candidate, generalize and
// postprocess stages in order, closed by a period_end event carrying
// the period's counters. A period that provably cannot change the
// working set — its shape is in the memo (memo.go), or it saturates a
// single live hypothesis (fixedPoint) — skips generalize and
// postprocess after the candidates stage: it still counts its
// messages and candidates, applies its history update and emits a
// period_end marked skipped. On error the engine's working set is no
// longer a consistent prefix of the instance stream; the caller owns
// making the session sticky.
func (e *Engine) ProcessPeriod(p *trace.Period) error {
	obsv := e.cfg.Observer
	children, merges := e.stats.Children, e.stats.Merges
	executed := execVector(p, e.ts)
	sp := obs.StartSpan(obsv, obs.PhaseCandidates)
	cands := depfunc.Candidates(p, e.ts, e.cfg.Policy)
	var learned, skipped bool
	if !e.noSkip {
		learned = e.memo.lookup(executed, cands)
		skipped = learned || e.fixedPoint(cands, executed)
	}
	var live []map[depfunc.Pair]bool
	if !skipped {
		live = liveSuffixes(cands)
	}
	sp.End()
	var relaxed, dropped int
	if skipped {
		e.subsumed = 0
		e.stats.Messages += len(p.Msgs)
		for _, pairs := range cands {
			e.stats.Candidates += len(pairs)
		}
		histGrew := updateHistory(e.hist, executed, e.ts.Len())
		if !learned {
			// The period ran as a no-op in all but name: the
			// processed period's memo bookkeeping applies.
			e.remember(!histGrew)
		}
	} else {
		if e.cfg.Bound > 0 {
			e.prev = append(e.prev[:0], e.cur...)
		}
		err := e.Generalize(p, cands, live)
		if err != nil {
			clear(e.prev)
			return err
		}
		var histGrew bool
		relaxed, dropped, histGrew = e.postprocess(p, executed)
		if !e.noSkip {
			e.remember(relaxed == 0 && !histGrew && unchanged(e.prev, e.cur))
		}
		clear(e.prev)
	}
	e.stats.Periods++
	if obsv != nil {
		// Postprocess leaves the survivors sorted by ascending
		// weight, so the weight range is at the ends.
		obsv.OnPeriodEnd(obs.PeriodEnd{
			Period:      p.Index,
			Messages:    len(p.Msgs),
			Children:    e.stats.Children - children,
			Merges:      e.stats.Merges - merges,
			Subsumed:    e.subsumed,
			Live:        len(e.cur),
			Dropped:     dropped,
			WeightMin:   e.cur[0].Weight(),
			WeightMax:   e.cur[len(e.cur)-1].Weight(),
			Relaxations: relaxed,
			Skipped:     skipped,
		})
	}
	return nil
}

// remember is the memo bookkeeping after a period the memo did not
// hold, whether it ran or the saturated rule skipped it (memo.go):
// exact mode keeps every learned shape; bounded mode keeps the shape
// of a period that changed nothing (noop) and clears the memo after
// any other.
func (e *Engine) remember(noop bool) {
	if e.cfg.Bound <= 0 || noop {
		e.memo.insert()
	} else {
		e.memo.reset()
	}
}

// fixedPoint reports whether the period provably maps the working set
// {h} to itself (THEORY.md §3b): every candidate pair of every message
// is saturated in h (joining its stamps changes no entry), h relaxes
// nothing under the period's violations, and the messages admit an
// assignment to distinct candidate pairs. Every child and merge of
// such a period then has h's matrix, and the assignment rules out the
// empty set, so the period's result is {h} in both modes. It works in
// the engine's scratch and allocates nothing.
func (e *Engine) fixedPoint(cands [][]depfunc.Pair, executed []bool) bool {
	return e.saturated(cands, executed) && e.matcher.Assignable(cands)
}

// saturated is fixedPoint's first two conditions: the working set is
// one hypothesis h, every candidate pair is saturated in h and h
// relaxes nothing under the period's violations.
func (e *Engine) saturated(cands [][]depfunc.Pair, executed []bool) bool {
	if len(e.cur) != 1 {
		return false
	}
	d := &e.cur[0].D
	for _, pairs := range cands {
		for _, pr := range pairs {
			fwd, bwd := e.stamps(pr)
			if !lattice.Leq(fwd, d.At(pr.S, pr.R)) || !lattice.Leq(bwd, d.At(pr.R, pr.S)) {
				return false
			}
		}
	}
	e.relaxMask = depfunc.Violations(e.ts, func(i int) bool { return executed[i] }, e.relaxMask)
	return !d.Relaxes(e.relaxMask)
}

// stamps returns the values a message on pair pr joins into the
// forward entry (s,r) and the backward entry (r,s): → and ←, each made
// conditional (→?, ←?) once the history holds a period that executed
// the entry's first task without its second (THEORY.md §2).
func (e *Engine) stamps(pr depfunc.Pair) (fwd, bwd lattice.Value) {
	n := e.ts.Len()
	fwd, bwd = lattice.Fwd, lattice.Bwd
	if e.hist[pr.S*n+pr.R] {
		fwd = lattice.FwdMaybe
	}
	if e.hist[pr.R*n+pr.S] {
		bwd = lattice.BwdMaybe
	}
	return fwd, bwd
}

// EnumerateCandidates computes the timing-feasible candidate pairs of
// every message of the period and the live-suffix sets behind early
// assumption forgetting, under the "candidates" span.
func (e *Engine) EnumerateCandidates(p *trace.Period) ([][]depfunc.Pair, []map[depfunc.Pair]bool) {
	sp := obs.StartSpan(e.cfg.Observer, obs.PhaseCandidates)
	cands := depfunc.Candidates(p, e.ts, e.cfg.Policy)
	live := liveSuffixes(cands)
	sp.End()
	return cands, live
}

// Generalize runs the message-guided generalization pass over the
// period, under the "generalize" span. cands and live must come from
// EnumerateCandidates on the same period.
func (e *Engine) Generalize(p *trace.Period, cands [][]depfunc.Pair, live []map[depfunc.Pair]bool) error {
	obsv := e.cfg.Observer
	sp := obs.StartSpan(obsv, obs.PhaseGeneralize)
	e.gen++
	e.subsumed = 0
	cur := e.cur
	for mi := range p.Msgs {
		next, err := e.generalizeMessage(cur, cands[mi], p.Index, mi, p.Msgs[mi].ID)
		if err != nil {
			sp.End()
			return fmt.Errorf("%w (period %d, message %q)", err, p.Index, p.Msgs[mi].ID)
		}
		if mi > 0 {
			// cur is an intermediate generation created within this
			// period and superseded by next: nothing else references
			// it (e.cur still holds the period-entry set; children
			// share parent buffers only through the refcount), so its
			// matrices go back to the arena.
			for _, h := range cur {
				h.Release(&e.arena)
			}
		}
		cur = e.forgetDeadAssumptions(next, live[mi+1])
		if e.cfg.Bound <= 0 {
			cur = e.subsume(cur)
		}
		e.stats.Messages++
		e.stats.Candidates += len(cands[mi])
		if len(cur) > e.stats.Peak {
			e.stats.Peak = len(cur)
		}
		if obsv != nil {
			obsv.OnMessageProcessed(obs.MessageProcessed{
				Period: p.Index, Index: mi, ID: p.Msgs[mi].ID,
				Candidates: len(cands[mi]), Live: len(cur),
			})
		}
	}
	sp.End()
	e.cur = cur
	return nil
}

// Postprocess runs the end-of-period pass under the "postprocess"
// span: relax violated unconditional entries, clear assumptions,
// unify and prune to the most specific set, update the cumulative
// history. It returns the relaxed-entry count and the number of
// hypotheses dropped by pruning. It empties the period-shape memo:
// ProcessPeriod keeps it only for periods it drives itself.
func (e *Engine) Postprocess(p *trace.Period, executed []bool) (relaxed, dropped int) {
	e.memo.reset()
	relaxed, dropped, _ = e.postprocess(p, executed)
	return relaxed, dropped
}

// postprocess is Postprocess that also reports whether the history
// grew.
func (e *Engine) postprocess(p *trace.Period, executed []bool) (relaxed, dropped int, histGrew bool) {
	sp := obs.StartSpan(e.cfg.Observer, obs.PhasePostprocess)
	e.gen++
	endCtx := hypothesis.StepCtx{Period: p.Index, Msg: -1}
	e.relaxMask = depfunc.Violations(e.ts, func(i int) bool { return executed[i] }, e.relaxMask)
	for _, h := range e.cur {
		relaxed += h.Relax(e.relaxMask, endCtx)
		h.ClearAssumptions()
	}
	e.stats.Relaxations += relaxed
	before := len(e.cur)
	e.cur = e.pruneMostSpecific(e.cur)
	// Every surviving assumption list was just cleared and no other
	// holder outlives the period, so the cons cells can recycle
	// wholesale. The arena keeps at most one spare header per
	// survivor, so an engine idling between periods pins no more
	// headers than its live set.
	e.arena.Reset(len(e.cur))
	// The dedup set's stale slots would otherwise keep this period's
	// pruned and superseded hypotheses reachable.
	e.seen.Clear()
	histGrew = updateHistory(e.hist, executed, e.ts.Len())
	sp.End()
	return relaxed, before - len(e.cur), histGrew
}

// generalizeMessage extends every hypothesis in cur by every
// admissible candidate assumption for one message, applying heuristic
// merging when a bound is set. Children are gathered in (parent, pair)
// order as they are generated.
func (e *Engine) generalizeMessage(cur []*hypothesis.Hypothesis, pairs []depfunc.Pair,
	period, msg int, msgID string) ([]*hypothesis.Hypothesis, error) {

	if len(pairs) == 0 {
		return nil, fmt.Errorf("%w: message has no timing-feasible sender/receiver pair", ErrNoHypothesis)
	}
	ctx := hypothesis.StepCtx{Period: period, Msg: msg, MsgID: msgID, Arena: &e.arena}
	wl := &e.wl
	wl.begin(minWeight(cur), ctx)
	seen := &e.seen
	seen.Reset()
	for _, h := range cur {
		for _, pr := range pairs {
			fwd, bwd := e.stamps(pr)
			c := h.Assume(pr, fwd, bwd, ctx)
			if c == nil {
				continue
			}
			if seen.Insert(c) {
				// An equal hypothesis is already in the working list;
				// the rejected duplicate was never seen by anyone else,
				// so it goes straight back to the arena.
				c.Release(ctx.Arena)
				continue
			}
			e.stats.Children++
			wl.add(c)
		}
	}

	out := wl.take()
	// The dedup set is dead from here on: hypotheses the bounded
	// heuristic merged away can no longer be consulted by any equality
	// check, so they are safe to recycle.
	wl.releaseRetired()
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no hypothesis can explain the message", ErrNoHypothesis)
	}
	if e.cfg.Bound <= 0 && e.cfg.MaxHypotheses > 0 && len(out) > e.cfg.MaxHypotheses {
		return nil, fmt.Errorf("%w: %d > %d", ErrTooManyHypotheses, len(out), e.cfg.MaxHypotheses)
	}
	return out, nil
}

// minWeight returns the weight of the lightest hypothesis in hs
// (which must not be empty).
func minWeight(hs []*hypothesis.Hypothesis) int {
	w := hs[0].Weight()
	for _, h := range hs[1:] {
		w = min(w, h.Weight())
	}
	return w
}

// liveSuffixes returns, for each message index i, the set of pairs
// appearing in the candidate sets of messages i..end (live[len] is
// empty). After message i is analyzed, assumptions about pairs outside
// live[i+1] can never be consulted again this period.
func liveSuffixes(cands [][]depfunc.Pair) []map[depfunc.Pair]bool {
	live := make([]map[depfunc.Pair]bool, len(cands)+1)
	live[len(cands)] = map[depfunc.Pair]bool{}
	for i := len(cands) - 1; i >= 0; i-- {
		m := make(map[depfunc.Pair]bool, len(live[i+1])+len(cands[i]))
		for p := range live[i+1] {
			m[p] = true
		}
		for _, p := range cands[i] {
			m[p] = true
		}
		live[i] = m
	}
	return live
}

// forgetDeadAssumptions drops assumptions about pairs that no
// remaining message of the period can use, then unifies hypotheses
// that became identical — a pure optimization that preserves the
// algorithm's results (dead assumptions cannot influence any future
// dup-pair check, and assumption sets are discarded at the period
// boundary anyway).
func (e *Engine) forgetDeadAssumptions(hs []*hypothesis.Hypothesis, live map[depfunc.Pair]bool) []*hypothesis.Hypothesis {
	// The message's gather is finished with e.seen (releaseRetired has
	// run), so the same set is reset and reused here.
	seen := &e.seen
	seen.Reset()
	out := hs[:0]
	ar := &e.arena
	for _, h := range hs {
		h.RetainAssumptions(func(p depfunc.Pair) bool { return live[p] }, ar)
		if !seen.Insert(h) {
			out = append(out, h)
		} else {
			// Unified away, referenced by nothing else: recycle.
			h.Release(ar)
		}
	}
	return out
}

func execVector(p *trace.Period, ts *depfunc.TaskSet) []bool {
	v := make([]bool, ts.Len())
	for name := range p.Execs {
		if i := ts.Index(name); i >= 0 {
			v[i] = true
		}
	}
	return v
}

// updateHistory marks hist[a·n+b] for every executed task a and every
// task b that did not execute, and reports whether a mark was new.
func updateHistory(hist []bool, executed []bool, n int) (grew bool) {
	for a := 0; a < n; a++ {
		if !executed[a] {
			continue
		}
		for b := 0; b < n; b++ {
			if a != b && !executed[b] && !hist[a*n+b] {
				hist[a*n+b] = true
				grew = true
			}
		}
	}
	return grew
}
