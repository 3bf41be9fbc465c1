package engine

import (
	"fmt"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
)

// State is a deep-copied snapshot of an engine session at a period
// boundary: the cumulative execution-violation history, the working
// hypothesis set (assumption-free — end-of-period post-processing
// always clears assumptions before ProcessPeriod returns) and the run
// statistics. A State shares no memory with the engine it came from,
// so the session may keep processing periods without disturbing it.
//
// Provenance chains are not part of a State: a session restored from
// one starts fresh derivation chains (documented on
// learner.Online.Snapshot, the public entry point).
type State struct {
	// History is the cumulative execution-violation vector, row-major
	// over the task-set index space (length n²).
	History []bool
	// Working holds the live dependency functions in working-set
	// order.
	Working []*depfunc.DepFunc
	// Stats is the instrumentation snapshot at checkpoint time.
	Stats Stats
}

// State snapshots the engine between periods. The copy is deep; see
// the State type comment.
func (e *Engine) State() *State {
	st := &State{
		History: append([]bool(nil), e.hist...),
		Working: make([]*depfunc.DepFunc, 0, len(e.cur)),
		Stats:   e.stats,
	}
	for _, h := range e.cur {
		st.Working = append(st.Working, h.D.Clone())
	}
	// A full snapshot is a valid delta capture point: re-anchor so
	// PeriodDelta's "one period since the baseline" contract holds for
	// checkpoint-then-continue sessions.
	e.resetDeltaBase()
	return st
}

// Restore rebuilds an engine session over ts from a State captured by
// State() on a session with the same task set and algorithmic
// configuration: processing the same subsequent periods yields
// bit-identical working sets and results. The State is deep-copied in
// turn, so the caller may reuse or mutate it afterwards.
func Restore(ts *depfunc.TaskSet, cfg Config, st *State) (*Engine, error) {
	n := ts.Len()
	if len(st.History) != n*n {
		return nil, fmt.Errorf("engine: restore: history length %d does not fit a %d-task set", len(st.History), n)
	}
	if len(st.Working) == 0 {
		return nil, fmt.Errorf("engine: restore: empty working set")
	}
	e := newEngine(ts, cfg)
	e.hist = append([]bool(nil), st.History...)
	e.cur = make([]*hypothesis.Hypothesis, 0, len(st.Working))
	for i, d := range st.Working {
		if !d.TaskSet().Equal(ts) {
			return nil, fmt.Errorf("engine: restore: working hypothesis %d is over task set %v, want %v",
				i, d.TaskSet().Names(), ts.Names())
		}
		h := hypothesis.FromDepFunc(d)
		if cfg.Provenance {
			h.EnableProvenance()
		}
		e.cur = append(e.cur, h)
	}
	e.stats = st.Stats
	if e.stats.Peak < len(e.cur) {
		e.stats.Peak = len(e.cur)
	}
	e.resetDeltaBase()
	return e, nil
}
