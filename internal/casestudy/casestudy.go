// Package casestudy freezes the experimental configurations used to
// reproduce the paper's evaluation (Section 3.4). All parameters are
// deterministic so every command, example, benchmark and test in this
// repository regenerates the same numbers.
//
// Two configurations exist:
//
//   - Full: the 18-task GM-style controller simulated for 27 periods,
//     matching the published trace statistics (≈330 messages, ≈700
//     event pairs). Used for the qualitative property experiment (E2),
//     the heuristic runtime table (E3) and the latency experiment
//     (E4). The exact algorithm is infeasible on this trace: with the
//     paper's purely causal candidate rule the mean sender/receiver
//     ambiguity is ≈25 pairs per message and the exact hypothesis set
//     grows beyond memory within one period.
//
//   - Lite: a seven-task subsystem with a high-fidelity logging
//     policy (timing windows plus nearest-K filtering, 100% ground
//     truth coverage) on which the exact algorithm terminates. Used to
//     reproduce the paper's exact-vs-heuristic comparison and the
//     convergence theorem checks.
package casestudy

import (
	"fmt"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// The published case-study shape: 27 periods; the paper's runtime
// table sweeps these heuristic bounds.
const (
	Periods = 27
	Seed    = 7
)

// Bounds is the bound column of the paper's runtime table.
var Bounds = []int{1, 4, 16, 32, 64, 100, 120, 150}

// FullModel returns the 18-task GM-style controller.
func FullModel() *model.Model { return model.GMStyle() }

// LiteModel returns the 7-task subsystem used for exact runs.
func LiteModel() *model.Model { return model.GMStyleLite() }

// FullPolicy is the paper's purely causal candidate rule: any task
// that finished before a message's rising edge may be its sender, any
// task that started after its falling edge may be its receiver.
func FullPolicy() depfunc.CandidatePolicy { return depfunc.CandidatePolicy{} }

// LitePolicy is the high-fidelity logging rule used for exact runs on
// the lite configuration. The windows are calibrated against the
// simulator's ground truth (max true sender lag 190 µs, max true
// receiver lead 2941 µs at the frozen seed) with generous margins;
// tests verify 100% ground-truth coverage.
func LitePolicy() depfunc.CandidatePolicy {
	return depfunc.CandidatePolicy{
		SenderWindow:   800,
		ReceiverWindow: 3500,
		MaxSenders:     2,
		MaxReceivers:   2,
	}
}

// FullTrace simulates the full configuration.
func FullTrace() (*sim.Output, error) {
	return sim.Run(FullModel(), sim.Options{Periods: Periods, Seed: Seed})
}

// LiteTrace simulates the lite configuration.
func LiteTrace() (*sim.Output, error) {
	return sim.Run(LiteModel(), sim.Options{Periods: Periods, Seed: Seed})
}

// MustFullTrace and MustLiteTrace panic on error; the configurations
// are frozen and simulate deterministically, so failure means the
// repository itself is broken.
func MustFullTrace() *trace.Trace {
	out, err := FullTrace()
	if err != nil {
		panic(fmt.Sprintf("casestudy: full trace: %v", err))
	}
	return out.Trace
}

// MustLiteTrace returns the lite configuration's trace.
func MustLiteTrace() *trace.Trace {
	out, err := LiteTrace()
	if err != nil {
		panic(fmt.Sprintf("casestudy: lite trace: %v", err))
	}
	return out.Trace
}
