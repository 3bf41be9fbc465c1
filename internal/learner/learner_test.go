package learner

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// randomTrace builds a structurally valid random trace: each period
// executes a random non-empty subset of tasks sequentially, and random
// messages are inserted in the gaps between a sender that already
// finished and a receiver that starts later. Such traces always have a
// consistent ground-truth assignment, so learning must succeed.
func randomTrace(r *rand.Rand, nTasks, nPeriods, maxMsgs int) *trace.Trace {
	names := make([]string, nTasks)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i+1)
	}
	b := trace.NewBuilder(names)
	clock := int64(0)
	for p := 0; p < nPeriods; p++ {
		b.StartPeriod()
		// Random execution order over a random subset.
		perm := r.Perm(nTasks)
		count := 1 + r.Intn(nTasks)
		var ends []struct {
			idx int
			end int64
		}
		starts := make(map[int]int64)
		for k := 0; k < count; k++ {
			i := perm[k]
			start := clock
			end := start + 10
			b.Exec(names[i], start, end)
			starts[i] = start
			ends = append(ends, struct {
				idx int
				end int64
			}{i, end})
			clock = end + 20 // gap for messages
		}
		// Messages: pick sender among finished tasks, receiver among
		// later-starting ones; at most one message per ordered pair.
		used := map[[2]int]bool{}
		nm := r.Intn(maxMsgs + 1)
		for m := 0; m < nm; m++ {
			si := r.Intn(len(ends))
			s := ends[si]
			// Candidates in execution order (perm), not map order, so
			// one seed always yields one trace.
			var rcv []int
			for _, idx := range perm[:count] {
				if starts[idx] > s.end && idx != s.idx && !used[[2]int{s.idx, idx}] {
					rcv = append(rcv, idx)
				}
			}
			if len(rcv) == 0 {
				continue
			}
			rc := rcv[r.Intn(len(rcv))]
			used[[2]int{s.idx, rc}] = true
			// Transmission inside the gap right after the sender ends.
			rise := s.end + 1 + int64(r.Intn(3))
			fall := rise + 2
			if fall >= starts[rc] {
				continue
			}
			b.Msg(fmt.Sprintf("p%dm%d", p, m), rise, fall)
		}
		clock += 100
	}
	return b.MustBuild()
}

// TestRandomTraceDeterministic: randomTrace is a pure function of its
// seed, so a failing random-trace test replays from the seed it logs.
func TestRandomTraceDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		a := randomTrace(rand.New(rand.NewSource(seed)), 4, 8, 12).String()
		b := randomTrace(rand.New(rand.NewSource(seed)), 4, 8, 12).String()
		if a != b {
			t.Fatalf("seed %d gave two traces:\n%s\n---\n%s", seed, a, b)
		}
	}
}

func TestEmptyTrace(t *testing.T) {
	tr := trace.New([]string{"a", "b"})
	res, err := LearnExact(tr, depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Hypotheses) != 1 {
		t.Fatalf("result = %d hypotheses", len(res.Hypotheses))
	}
	if !res.Hypotheses[0].Equal(depfunc.Bottom(res.TaskSet)) {
		t.Error("empty trace should yield d-bottom")
	}
}

func TestMessageWithoutSender(t *testing.T) {
	tr := trace.NewBuilder([]string{"a", "b"}).
		StartPeriod().Msg("m", 0, 1).Exec("a", 2, 3).Exec("b", 4, 5).
		MustBuild()
	_, err := LearnExact(tr, depfunc.CandidatePolicy{})
	if !errors.Is(err, ErrNoHypothesis) {
		t.Fatalf("err = %v, want ErrNoHypothesis", err)
	}
}

func TestMessageWithoutReceiver(t *testing.T) {
	tr := trace.NewBuilder([]string{"a", "b"}).
		StartPeriod().Exec("a", 0, 1).Exec("b", 2, 3).Msg("m", 10, 11).
		MustBuild()
	_, err := LearnExact(tr, depfunc.CandidatePolicy{})
	if !errors.Is(err, ErrNoHypothesis) {
		t.Fatalf("err = %v, want ErrNoHypothesis", err)
	}
}

func TestTwoMessagesOnePairDies(t *testing.T) {
	// Two messages whose only candidate is the same ordered pair:
	// violates at-most-one-message-per-pair, so the set empties.
	tr := trace.NewBuilder([]string{"a", "b"}).
		StartPeriod().Exec("a", 0, 1).Msg("m1", 2, 3).Msg("m2", 4, 5).Exec("b", 6, 7).
		MustBuild()
	_, err := LearnExact(tr, depfunc.CandidatePolicy{})
	if !errors.Is(err, ErrNoHypothesis) {
		t.Fatalf("err = %v, want ErrNoHypothesis", err)
	}
}

func TestMaxHypothesesAbort(t *testing.T) {
	tr := trace.PaperFigure2()
	_, err := Learn(tr, Options{MaxHypotheses: 1})
	if !errors.Is(err, ErrTooManyHypotheses) {
		t.Fatalf("err = %v, want ErrTooManyHypotheses", err)
	}
}

func TestBadTaskSet(t *testing.T) {
	tr := trace.New([]string{"a", "a"})
	if _, err := LearnExact(tr, depfunc.CandidatePolicy{}); err == nil {
		t.Fatal("duplicate task names accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	tr := trace.PaperFigure2()
	res, err := LearnExact(tr, depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Periods != 3 || s.Messages != 8 {
		t.Errorf("Periods=%d Messages=%d", s.Periods, s.Messages)
	}
	if s.Peak < len(res.Hypotheses) {
		t.Errorf("Peak=%d < final %d", s.Peak, len(res.Hypotheses))
	}
	if s.Children == 0 {
		t.Error("no children counted")
	}
	if s.Merges != 0 {
		t.Errorf("exact run recorded %d merges", s.Merges)
	}
	if s.Relaxations == 0 {
		t.Error("the paper example requires relaxations (e.g. d(t1,t2) -> ->?)")
	}
}

func TestHeuristicRespectsBound(t *testing.T) {
	tr := trace.PaperFigure2()
	for _, b := range []int{1, 2, 3, 5, 8} {
		res, err := LearnBounded(tr, b, depfunc.CandidatePolicy{})
		if err != nil {
			t.Fatalf("bound %d: %v", b, err)
		}
		if res.Stats.Peak > b {
			t.Errorf("bound %d: peak working set %d exceeds bound", b, res.Stats.Peak)
		}
		if len(res.Hypotheses) > b {
			t.Errorf("bound %d: %d final hypotheses", b, len(res.Hypotheses))
		}
	}
}

// TestHeuristicSoundOnPaperExample: Theorem 2 for the heuristic — all
// returned hypotheses match the full trace, for every bound.
func TestHeuristicSoundOnPaperExample(t *testing.T) {
	tr := trace.PaperFigure2()
	for b := 1; b <= 10; b++ {
		res, err := LearnBounded(tr, b, depfunc.CandidatePolicy{})
		if err != nil {
			t.Fatalf("bound %d: %v", b, err)
		}
		for i, d := range res.Hypotheses {
			if ok, p := depfunc.MatchTrace(d, tr, depfunc.CandidatePolicy{}); !ok {
				t.Errorf("bound %d: hypothesis %d fails period %d:\n%s", b, i, p, d.Table())
			}
		}
	}
}

// TestConvergenceLemmaPaperExample: the paper's Lemma — the bound-1
// result equals the least upper bound of the exact result set — holds
// on the worked example; and the bound-b LUBs agree with it for every
// bound (Theorem 4's underlying invariant on this trace).
func TestConvergenceLemmaPaperExample(t *testing.T) {
	tr := trace.PaperFigure2()
	exact, err := LearnExact(tr, depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	one, err := LearnBounded(tr, 1, depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !one.Converged {
		t.Fatal("bound 1 should converge to a single hypothesis")
	}
	if !one.Hypotheses[0].Equal(exact.LUB) {
		t.Errorf("bound-1 result != exact LUB:\ngot:\n%s\nwant:\n%s",
			one.Hypotheses[0].Table(), exact.LUB.Table())
	}
	for b := 2; b <= 12; b++ {
		res, err := LearnBounded(tr, b, depfunc.CandidatePolicy{})
		if err != nil {
			t.Fatalf("bound %d: %v", b, err)
		}
		if !res.LUB.Equal(exact.LUB) {
			t.Errorf("bound %d: LUB differs from exact LUB:\ngot:\n%s\nwant:\n%s",
				b, res.LUB.Table(), exact.LUB.Table())
		}
	}
}

// TestLargeBoundEqualsExact: when the bound exceeds the peak
// working-set size of a run that never merges, no merge ever fires and
// the heuristic returns exactly the exact result. The exact run's own
// peak is no such bound: it subsumes inside the period, which the
// bounded mode does not, so the peak comes from a bounded run at a
// bound no working set reaches.
func TestLargeBoundEqualsExact(t *testing.T) {
	tr := trace.PaperFigure2()
	exact, err := LearnExact(tr, depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := LearnBounded(tr, math.MaxInt32, depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if wide.Stats.Merges != 0 {
		t.Fatalf("bound %d: merges = %d, want 0", math.MaxInt32, wide.Stats.Merges)
	}
	res, err := LearnBounded(tr, wide.Stats.Peak+1, depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Merges != 0 {
		t.Errorf("merges = %d, want 0", res.Stats.Merges)
	}
	if len(res.Hypotheses) != len(exact.Hypotheses) {
		t.Fatalf("got %d hypotheses, want %d", len(res.Hypotheses), len(exact.Hypotheses))
	}
	for i := range res.Hypotheses {
		if !res.Hypotheses[i].Equal(exact.Hypotheses[i]) {
			t.Errorf("hypothesis %d differs", i)
		}
	}
}

// TestCorrectnessTheoremRandom: Theorem 2 on random traces, exact and
// bounded variants.
func TestCorrectnessTheoremRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 30; iter++ {
		tr := randomTrace(r, 3+r.Intn(3), 2+r.Intn(4), 3)
		for _, bound := range []int{0, 1, 4} {
			res, err := Learn(tr, Options{Bound: bound})
			if err != nil {
				t.Fatalf("iter %d bound %d: %v\ntrace:\n%s", iter, bound, err, tr)
			}
			for i, d := range res.Hypotheses {
				if ok, p := depfunc.MatchTrace(d, tr, depfunc.CandidatePolicy{}); !ok {
					t.Errorf("iter %d bound %d: hypothesis %d fails period %d\n%s\ntrace:\n%s",
						iter, bound, i, p, d.Table(), tr)
				}
			}
		}
	}
}

// TestHeuristicDominatesExactRandom: the heuristic is conservative in
// the precise sense that every returned hypothesis is an upper bound
// of (at least) one exact most-specific hypothesis. (The stronger
// claim that the heuristic LUB bounds the exact LUB does not hold in
// general: end-of-period redundancy pruning can discard a merged
// hypothesis in favour of a more specific unmerged one, losing entries
// the exact LUB retains. See EXPERIMENTS.md.)
func TestHeuristicDominatesExactRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for iter := 0; iter < 25; iter++ {
		tr := randomTrace(r, 3+r.Intn(2), 2+r.Intn(3), 2)
		exact, err := LearnExact(tr, depfunc.CandidatePolicy{})
		if err != nil {
			t.Fatal(err)
		}
		for _, bound := range []int{1, 2, 4} {
			res, err := LearnBounded(tr, bound, depfunc.CandidatePolicy{})
			if err != nil {
				t.Fatalf("iter %d bound %d: %v", iter, bound, err)
			}
			for i, h := range res.Hypotheses {
				dominates := false
				for _, e := range exact.Hypotheses {
					if e.Leq(h) {
						dominates = true
						break
					}
				}
				if !dominates {
					t.Errorf("iter %d bound %d: heuristic hypothesis %d dominates no exact hypothesis\n%s\ntrace:\n%s",
						iter, bound, i, h.Table(), tr)
				}
			}
		}
	}
}

// TestCompletenessTwoTasks: Theorem 3 checked exhaustively for a
// two-task system — every dependency function that matches the trace
// is more general than (or equal to) some returned hypothesis.
func TestCompletenessTwoTasks(t *testing.T) {
	tr := trace.NewBuilder([]string{"a", "b"}).
		StartPeriod().Exec("a", 0, 10).Msg("m1", 11, 12).Exec("b", 14, 20).
		StartPeriod().Exec("a", 100, 110).
		MustBuild()
	res, err := LearnExact(tr, depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ts := res.TaskSet
	for _, vab := range lattice.Values() {
		for _, vba := range lattice.Values() {
			d := depfunc.Bottom(ts)
			d.Set(0, 1, vab)
			d.Set(1, 0, vba)
			ok, _ := depfunc.MatchTrace(d, tr, depfunc.CandidatePolicy{})
			if !ok {
				continue
			}
			covered := false
			for _, h := range res.Hypotheses {
				if h.Leq(d) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("matching d(a,b)=%v d(b,a)=%v not covered by any returned hypothesis", vab, vba)
			}
		}
	}
}

// TestCompletenessTwoTasksMutual: same exhaustive check on a trace
// with messages in both directions across periods.
func TestCompletenessTwoTasksMutual(t *testing.T) {
	tr := trace.NewBuilder([]string{"a", "b"}).
		StartPeriod().Exec("a", 0, 10).Msg("m1", 11, 12).Exec("b", 14, 20).
		StartPeriod().Exec("b", 100, 110).Msg("m2", 111, 112).Exec("a", 114, 120).
		MustBuild()
	res, err := LearnExact(tr, depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	ts := res.TaskSet
	for _, vab := range lattice.Values() {
		for _, vba := range lattice.Values() {
			d := depfunc.Bottom(ts)
			d.Set(0, 1, vab)
			d.Set(1, 0, vba)
			if ok, _ := depfunc.MatchTrace(d, tr, depfunc.CandidatePolicy{}); !ok {
				continue
			}
			covered := false
			for _, h := range res.Hypotheses {
				if h.Leq(d) {
					covered = true
					break
				}
			}
			if !covered {
				t.Errorf("matching d(a,b)=%v d(b,a)=%v not covered", vab, vba)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	tr := trace.PaperFigure2()
	run := func(bound int) string {
		res, err := Learn(tr, Options{Bound: bound})
		if err != nil {
			t.Fatal(err)
		}
		out := ""
		for _, d := range res.Hypotheses {
			out += d.Key() + "\n"
		}
		return out
	}
	for _, b := range []int{0, 1, 3} {
		if run(b) != run(b) {
			t.Errorf("bound %d: nondeterministic results", b)
		}
	}
}

func TestVerifyResultsKeepsExact(t *testing.T) {
	tr := trace.PaperFigure2()
	res, err := Learn(tr, Options{VerifyResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DroppedUnsound != 0 {
		t.Errorf("exact run dropped %d hypotheses", res.Stats.DroppedUnsound)
	}
	if len(res.Hypotheses) != 5 {
		t.Errorf("got %d hypotheses, want 5", len(res.Hypotheses))
	}
}

func TestResultsSortedByWeight(t *testing.T) {
	res, err := LearnExact(trace.PaperFigure2(), depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Hypotheses); i++ {
		if res.Hypotheses[i-1].Weight() > res.Hypotheses[i].Weight() {
			t.Fatal("hypotheses not sorted by weight")
		}
	}
}

// TestHistoryAwareStamps pins the subtlety that makes d81 come out
// right: a dependency first observed in period 2 between tasks whose
// co-execution was already refuted by period 1 must be stamped
// conditionally.
func TestHistoryAwareStamps(t *testing.T) {
	// Period 1: only a runs. Period 2: a sends to b.
	tr := trace.NewBuilder([]string{"a", "b"}).
		StartPeriod().Exec("a", 0, 10).
		StartPeriod().Exec("a", 100, 110).Msg("m", 111, 112).Exec("b", 114, 120).
		MustBuild()
	res, err := LearnExact(tr, depfunc.CandidatePolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("expected convergence, got %d hypotheses", len(res.Hypotheses))
	}
	d := res.Hypotheses[0]
	if got := d.MustGet("a", "b"); got != lattice.FwdMaybe {
		t.Errorf("d(a,b) = %v, want ->? (period 1 refuted ->)", got)
	}
	// b never ran without a, so the backward entry stays firm.
	if got := d.MustGet("b", "a"); got != lattice.Bwd {
		t.Errorf("d(b,a) = %v, want <-", got)
	}
}
