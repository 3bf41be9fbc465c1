package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// runEngine drives every period of the trace through a fresh engine
// and returns it.
func runEngine(t *testing.T, tr *trace.Trace, cfg Config) *Engine {
	t.Helper()
	ts, err := depfunc.NewTaskSet(tr.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ts, cfg)
	for _, p := range tr.Periods {
		if err := e.ProcessPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// workingKeys returns the canonical keys of the engine's live set, in
// order.
func workingKeys(e *Engine) []string {
	out := make([]string, 0, e.WorkingSetSize())
	for _, h := range e.Working() {
		out = append(out, h.D.Key())
	}
	return out
}

// TestStageComposition: driving the three stages by hand produces the
// same working set as ProcessPeriod — the composed method adds only
// the period_end event, no hidden computation.
func TestStageComposition(t *testing.T) {
	tr := trace.PaperFigure2()
	whole := runEngine(t, tr, Config{})

	ts, _ := depfunc.NewTaskSet(tr.Tasks)
	manual := New(ts, Config{})
	for _, p := range tr.Periods {
		executed := execVector(p, manual.ts)
		cands, live := manual.EnumerateCandidates(p)
		if err := manual.Generalize(p, cands, live); err != nil {
			t.Fatal(err)
		}
		manual.Postprocess(p, executed)
		manual.stats.Periods++
	}
	if !reflect.DeepEqual(workingKeys(whole), workingKeys(manual)) {
		t.Errorf("manual stage composition diverges from ProcessPeriod:\n%v\n%v",
			workingKeys(whole), workingKeys(manual))
	}
	if !reflect.DeepEqual(whole.Stats(), manual.Stats()) {
		t.Errorf("stats diverge:\n%+v\n%+v", whole.Stats(), manual.Stats())
	}
}

// TestEngineErrors: an inexplicable message empties the set with
// ErrNoHypothesis wrapped in period/message context, and the exact
// algorithm respects MaxHypotheses.
func TestEngineErrors(t *testing.T) {
	tr := trace.PaperFigure2()
	ts, _ := depfunc.NewTaskSet(tr.Tasks)

	// A message with no feasible pair: empty period span, one message
	// with no surrounding executions.
	e := New(ts, Config{})
	bad := &trace.Period{Index: 9, Execs: map[string]trace.Interval{},
		Msgs: []trace.Message{{ID: "mX", Rise: 10, Fall: 20}}}
	err := e.ProcessPeriod(bad)
	if err == nil {
		t.Fatal("no error for an inexplicable message")
	}
	if !errors.Is(err, ErrNoHypothesis) {
		t.Errorf("error is not ErrNoHypothesis: %v", err)
	}
	if got := err.Error(); !strings.Contains(got, "period 9") || !strings.Contains(got, `"mX"`) {
		t.Errorf("error lacks period/message context: %v", got)
	}

	e2 := New(ts, Config{MaxHypotheses: 1})
	var failed error
	for _, p := range tr.Periods {
		if failed = e2.ProcessPeriod(p); failed != nil {
			break
		}
	}
	if failed == nil {
		t.Fatal("MaxHypotheses 1 did not trip on the paper trace")
	}
	if !errors.Is(failed, ErrTooManyHypotheses) {
		t.Errorf("error is not ErrTooManyHypotheses: %v", failed)
	}
}
