package conformance

import (
	"errors"
	"fmt"

	"github.com/blackbox-rt/modelgen/internal/drift"
	"github.com/blackbox-rt/modelgen/internal/learner"
)

// DefaultDriftWindow is the detection-lag bound, in periods, used when
// a drift entry's manifest does not set one. It matches the serving
// stack's acceptance bound (bbload -drift-window).
const DefaultDriftWindow = 20

// driftConvergeAfter is the stability streak the oracle's monitor
// freezes references at. Corpus traces are short, so it sits below the
// serving default, but still above the Page–Hinkley alarm horizon
// λ/(1−δ) ≈ 3.2 periods so a hard flip alarms before the relaxed
// post-flip model could be mistaken for convergence.
const driftConvergeAfter = 4

// DriftDetection runs the drift monitor over one corpus entry the way
// the serving layer does — after each learned period, the monitor
// observes the period with the online learner's working-set LUB and
// size — and checks the change-point contract declared by the entry's
// manifest:
//
//   - stationary entries (DriftFlipPeriod == 0): the monitor must
//     never alarm. The whole committed corpus doubles as the
//     zero-false-alarm fixture.
//   - drift entries (DriftFlipPeriod == N > 0): the regime changes at
//     period N+1 (1-based), and the monitor must raise exactly one
//     alarm, estimate the change point within ±1 of N+1, lag the true
//     change by at most DriftWindow periods, and re-converge on the
//     new regime when enough post-alarm periods remain.
//
// A learner that exceeds its hypothesis budget skips the oracle; any
// other learner failure is a violation, since corpus traces respect
// the model of computation.
func DriftDetection(e *Entry, opt learner.Options) ([]Violation, error) {
	window := e.DriftWindow
	if window <= 0 {
		window = DefaultDriftWindow
	}
	o, err := learner.NewOnline(e.Trace.Tasks, opt)
	if err != nil {
		return nil, err
	}
	mon := drift.New(drift.Config{ConvergeAfter: driftConvergeAfter, Policy: opt.Policy})
	var events []*drift.Event
	for _, p := range e.Trace.Periods {
		if err := o.AddPeriod(p); err != nil {
			if errors.Is(err, learner.ErrTooManyHypotheses) {
				return nil, fmt.Errorf("%w: %v", ErrOracleSkipped, err)
			}
			return []Violation{violationf("drift/learner-failure",
				"learner failed at period %d of a corpus trace: %v", p.Index, err)}, nil
		}
		if ev := mon.Observe(p, o.LUB(), o.WorkingSetSize()); ev != nil {
			events = append(events, ev)
		}
	}

	var out []Violation
	if e.DriftFlipPeriod <= 0 {
		for _, ev := range events {
			out = append(out, violationf("drift/stationary-false-alarm",
				"alarm at period %d (estimated change point %d) on a stationary trace",
				ev.Period, ev.ChangePoint))
		}
		return out, nil
	}

	flip := e.DriftFlipPeriod
	if len(events) == 0 {
		return append(out, violationf("drift/flip-undetected",
			"no alarm over %d periods despite the regime change after period %d",
			len(e.Trace.Periods), flip)), nil
	}
	ev := events[0]
	if d := ev.ChangePoint - (flip + 1); d < -1 || d > 1 {
		out = append(out, violationf("drift/change-point",
			"estimated change point %d, want %d (±1)", ev.ChangePoint, flip+1))
	}
	if lag := ev.Period - (flip + 1); lag < 0 || lag > window {
		out = append(out, violationf("drift/detection-window",
			"alarm at period %d lags the true change point %d by %d periods, window is %d",
			ev.Period, flip+1, lag, window))
	}
	for _, extra := range events[1:] {
		out = append(out, violationf("drift/extra-alarm",
			"second alarm at period %d (change point %d) after the flip was already detected",
			extra.Period, extra.ChangePoint))
	}
	// Re-convergence needs a fingerprint streak of driftConvergeAfter,
	// which takes driftConvergeAfter+1 post-alarm periods to build.
	if rem := len(e.Trace.Periods) - ev.Period; rem > driftConvergeAfter+1 && !mon.Converged() {
		out = append(out, violationf("drift/no-reconvergence",
			"generation %d never froze a reference over the %d post-alarm periods",
			mon.Generation(), rem))
	}
	return out, nil
}
