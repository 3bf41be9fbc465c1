// Benchmark harness regenerating the paper's evaluation (see
// EXPERIMENTS.md for the experiment index):
//
//   - BenchmarkE1ExactPaperExample — the Section 3.3 worked example.
//   - BenchmarkE3HeuristicFull — the runtime table of Section 3.4
//     (bound vs run time) on the 18-task case study.
//   - BenchmarkE3HeuristicLite / BenchmarkE3ExactLite — the same sweep
//     plus the exact-algorithm datum on the exact-tractable subsystem.
//   - BenchmarkE4LatencyAnalysis — the critical-path latency
//     comparison.
//   - BenchmarkE5Scale* — the O(m·b² + m·b·t²) complexity claim:
//     scaling in messages (periods), bound and task count.
//   - BenchmarkE5ExactAmbiguity — the exponential growth of the exact
//     algorithm with per-message ambiguity (the practical face of
//     Theorem 1's NP-hardness).
//   - BenchmarkAblationMatcher — matcher backend (backtracking vs
//     DPLL).
package modelgen_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	modelgen "github.com/blackbox-rt/modelgen"
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/sat"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

var (
	fullOnce  sync.Once
	fullTrace *modelgen.Trace
	liteOnce  sync.Once
	liteTrace *modelgen.Trace
)

func caseStudyTrace(b *testing.B) *modelgen.Trace {
	fullOnce.Do(func() {
		out, err := modelgen.Simulate(modelgen.GMStyleModel(), modelgen.SimOptions{
			Periods: modelgen.CaseStudyPeriods, Seed: modelgen.CaseStudySeed,
		})
		if err != nil {
			b.Fatalf("simulating case study: %v", err)
		}
		fullTrace = out.Trace
	})
	return fullTrace
}

func liteCaseStudyTrace(b *testing.B) *modelgen.Trace {
	liteOnce.Do(func() {
		out, err := modelgen.Simulate(modelgen.GMStyleLiteModel(), modelgen.SimOptions{
			Periods: modelgen.CaseStudyPeriods, Seed: modelgen.CaseStudySeed,
		})
		if err != nil {
			b.Fatalf("simulating lite case study: %v", err)
		}
		liteTrace = out.Trace
	})
	return liteTrace
}

// BenchmarkE1ExactPaperExample: the exact algorithm on the Figure-2
// trace (Section 3.3).
func BenchmarkE1ExactPaperExample(b *testing.B) {
	tr := modelgen.PaperTrace()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := modelgen.LearnExact(tr, modelgen.CandidatePolicy{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3HeuristicFull regenerates the runtime table of Section
// 3.4 on the full 18-task case study: one sub-benchmark per bound of
// the paper's table.
func BenchmarkE3HeuristicFull(b *testing.B) {
	tr := caseStudyTrace(b)
	for _, bound := range modelgen.CaseStudyBounds() {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := modelgen.LearnBounded(tr, bound, modelgen.CaseStudyPolicy(false)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3HeuristicLite: the same sweep on the lite configuration,
// comparable with BenchmarkE3ExactLite.
func BenchmarkE3HeuristicLite(b *testing.B) {
	tr := liteCaseStudyTrace(b)
	for _, bound := range modelgen.CaseStudyBounds() {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := modelgen.LearnBounded(tr, bound, modelgen.CaseStudyPolicy(true)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3ExactLite: the exact-algorithm datum (the paper's
// 630.997 s row, reproduced at tractable scale — see EXPERIMENTS.md).
func BenchmarkE3ExactLite(b *testing.B) {
	tr := liteCaseStudyTrace(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := modelgen.Learn(tr, modelgen.LearnOptions{
			Policy:        modelgen.CaseStudyPolicy(true),
			MaxHypotheses: 10_000_000,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4LatencyAnalysis: the pessimistic-vs-informed critical
// path comparison (learning excluded; the analysis itself).
func BenchmarkE4LatencyAnalysis(b *testing.B) {
	tr := caseStudyTrace(b)
	res, err := modelgen.LearnBounded(tr, 32, modelgen.CaseStudyPolicy(false))
	if err != nil {
		b.Fatal(err)
	}
	m := modelgen.GMStyleModel()
	path := modelgen.LatencyPath{Tasks: []string{"S", "A", "D", "L", "P", "Q"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := modelgen.CompareLatency(m, path, res.LUB, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5ScaleMessages: heuristic run time vs trace length m
// (messages grow linearly with the simulated period count).
func BenchmarkE5ScaleMessages(b *testing.B) {
	for _, periods := range []int{9, 18, 27, 54} {
		out, err := modelgen.Simulate(modelgen.GMStyleModel(), modelgen.SimOptions{Periods: periods, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		msgs := out.Trace.Stats().Messages
		b.Run(fmt.Sprintf("m=%d", msgs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := modelgen.LearnBounded(out.Trace, 16, modelgen.CandidatePolicy{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5ScaleTasks: heuristic run time vs task count t on random
// layered models (the t² factor of the complexity claim).
func BenchmarkE5ScaleTasks(b *testing.B) {
	for _, width := range []int{2, 3, 4, 5} {
		opt := model.DefaultRandomOptions()
		opt.Layers = 3
		opt.TasksPerLayer = width
		m := model.RandomModel(rand.New(rand.NewSource(17)), opt)
		out, err := sim.Run(m, sim.Options{Periods: 18, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("t=%d", 3*width), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := learner.LearnBounded(out.Trace, 16, depfunc.CandidatePolicy{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE5ExactAmbiguity: exact-algorithm run time on a single
// period whose k messages are mutually ambiguous — the per-message
// candidate sets overlap, so the hypothesis space grows exponentially
// with k. This is the practical shape of Theorem 1.
func BenchmarkE5ExactAmbiguity(b *testing.B) {
	for _, k := range []int{2, 3, 4, 5, 6} {
		tr := ambiguousTrace(k)
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := modelgen.LearnExact(tr, modelgen.CandidatePolicy{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ambiguousTrace builds one period with a chain of k+1 tasks and k
// messages in the gaps; message i has roughly i×(k−i) feasible
// sender/receiver pairs.
func ambiguousTrace(k int) *modelgen.Trace {
	names := make([]string, k+1)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i)
	}
	bld := trace.NewBuilder(names)
	bld.StartPeriod()
	t := int64(0)
	for i := 0; i <= k; i++ {
		bld.Exec(names[i], t, t+10)
		if i < k {
			bld.Msg(fmt.Sprintf("m%d", i), t+12, t+14)
		}
		t += 20
	}
	return bld.MustBuild()
}

// BenchmarkAblationMatcher compares the two independent matching
// implementations on the learned case-study model.
func BenchmarkAblationMatcher(b *testing.B) {
	tr := caseStudyTrace(b)
	res, err := modelgen.LearnBounded(tr, 32, modelgen.CaseStudyPolicy(false))
	if err != nil {
		b.Fatal(err)
	}
	d := res.LUB
	pol := depfunc.CandidatePolicy{}
	b.Run("backtracking", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range tr.Periods {
				if !depfunc.Match(d, p, pol) {
					b.Fatal("learned model must match")
				}
			}
		}
	})
	b.Run("dpll", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range tr.Periods {
				if !sat.MatchPeriod(d, p, pol) {
					b.Fatal("learned model must match")
				}
			}
		}
	})
}

// BenchmarkE2Reachability: explicit-state exploration of the learned
// case-study model's completion state space (the model-checking
// substrate behind the paper's state-space-reduction claim).
func BenchmarkE2Reachability(b *testing.B) {
	tr := caseStudyTrace(b)
	res, err := modelgen.LearnBounded(tr, 32, modelgen.CaseStudyPolicy(false))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := modelgen.ExploreStateSpace(res.LUB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateGMStyle: the discrete-event simulator's own cost.
func BenchmarkSimulateGMStyle(b *testing.B) {
	m := modelgen.GMStyleModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := modelgen.Simulate(m, modelgen.SimOptions{Periods: 27, Seed: 7}); err != nil {
			b.Fatal(err)
		}
	}
}
