package depfunc

import (
	"math/rand"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

func figure2() *trace.Trace { return trace.PaperFigure2() }

func TestCandidatesFigure2Period1(t *testing.T) {
	tr := figure2()
	ts := MustTaskSet(tr.Tasks...)
	cands := Candidates(tr.Periods[0], ts, CandidatePolicy{})
	if len(cands) != 2 {
		t.Fatalf("candidate sets = %d, want 2", len(cands))
	}
	// m1: sender t1; receivers t2, t4.
	want1 := map[Pair]bool{{0, 1}: true, {0, 3}: true}
	if !samePairs(cands[0], want1) {
		t.Errorf("m1 candidates = %v, want (t1,t2),(t1,t4)", cands[0])
	}
	// m2: senders t1, t2; receiver t4.
	want2 := map[Pair]bool{{0, 3}: true, {1, 3}: true}
	if !samePairs(cands[1], want2) {
		t.Errorf("m2 candidates = %v, want (t1,t4),(t2,t4)", cands[1])
	}
}

func TestCandidatesFigure2Period3(t *testing.T) {
	tr := figure2()
	ts := MustTaskSet(tr.Tasks...)
	cands := Candidates(tr.Periods[2], ts, CandidatePolicy{})
	if len(cands) != 4 {
		t.Fatalf("candidate sets = %d, want 4", len(cands))
	}
	// m5, m6: sender t1; receivers t3, t2, t4.
	wantEarly := map[Pair]bool{{0, 2}: true, {0, 1}: true, {0, 3}: true}
	for mi := 0; mi < 2; mi++ {
		if !samePairs(cands[mi], wantEarly) {
			t.Errorf("m%d candidates = %v", 5+mi, cands[mi])
		}
	}
	// m7: senders t1, t3; t4 is the only receiver (t2 started before
	// m7 fell, overlapping t3's execution).
	want7 := map[Pair]bool{{0, 3}: true, {2, 3}: true}
	if !samePairs(cands[2], want7) {
		t.Errorf("m7 candidates = %v", cands[2])
	}
	// m8: senders t1, t3, t2; receiver t4.
	want8 := map[Pair]bool{{0, 3}: true, {2, 3}: true, {1, 3}: true}
	if !samePairs(cands[3], want8) {
		t.Errorf("m8 candidates = %v", cands[3])
	}
}

func samePairs(got []Pair, want map[Pair]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, p := range got {
		if !want[p] {
			return false
		}
	}
	return true
}

func TestCandidatesWindows(t *testing.T) {
	tr := trace.NewBuilder([]string{"a", "b", "c"}).
		StartPeriod().
		Exec("a", 0, 10).
		Exec("b", 0, 48). // ends long before the rise
		Msg("m", 50, 52).
		Exec("c", 60, 70).
		MustBuild()
	ts := MustTaskSet("a", "b", "c")
	all := Candidates(tr.Periods[0], ts, CandidatePolicy{})
	if len(all[0]) != 2 { // (a,c) and (b,c)
		t.Fatalf("unwindowed candidates = %v", all[0])
	}
	tight := Candidates(tr.Periods[0], ts, CandidatePolicy{SenderWindow: 5})
	if len(tight[0]) != 1 || tight[0][0] != (Pair{1, 2}) {
		t.Fatalf("sender-windowed candidates = %v, want [(b,c)]", tight[0])
	}
	recv := Candidates(tr.Periods[0], ts, CandidatePolicy{ReceiverWindow: 5})
	if len(recv[0]) != 0 {
		t.Fatalf("receiver-windowed candidates = %v, want none (c starts 8 after fall)", recv[0])
	}
}

func TestCandidatesSenderReceiverDistinct(t *testing.T) {
	// A task that both ends before the rise and starts after the fall
	// is impossible, but a self-pair can only arise from a bug; check
	// none are produced even with a zero-length execution.
	tr := trace.NewBuilder([]string{"a"}).
		StartPeriod().Exec("a", 0, 1).Msg("m", 2, 3).
		MustBuild()
	ts := MustTaskSet("a")
	cands := Candidates(tr.Periods[0], ts, CandidatePolicy{})
	if len(cands[0]) != 0 {
		t.Fatalf("candidates = %v, want none", cands[0])
	}
}

func TestMatchImplicationViolation(t *testing.T) {
	tr := figure2()
	d := Bottom(MustTaskSet(tr.Tasks...))
	// d(t1,t2) = -> is violated by period 2 (t1 runs, t2 does not)...
	d.Set(0, 1, lattice.Fwd)
	d.Set(1, 0, lattice.Bwd)
	if Match(d, tr.Periods[1], CandidatePolicy{}) {
		t.Error("period 2 should violate d(t1,t2)=->")
	}
	// ...but the messages of period 2 cannot be explained by this d
	// either, so period 1 also fails (no admissible pairs for m2).
	if err := MatchExplain(d, tr.Periods[1], CandidatePolicy{}); err == nil {
		t.Error("MatchExplain should return an error")
	}
}

func TestMatchAssignment(t *testing.T) {
	tr := figure2()
	// The paper's d21: m1 from t1 to t2, m2 from t1 to t4.
	d21 := MustParseTable(`
      t1   t2   t3   t4
t1    ||   ->   ||   ->
t2    <-   ||   ||   ||
t3    ||   ||   ||   ||
t4    <-   ||   ||   ||
`)
	if !Match(d21, tr.Periods[0], CandidatePolicy{}) {
		t.Error("d21 should match period 1")
	}
	// d21 does not match period 2: m3/m4 need t3 pairs.
	if Match(d21, tr.Periods[1], CandidatePolicy{}) {
		t.Error("d21 should not match period 2")
	}
}

func TestMatchDistinctPairsConstraint(t *testing.T) {
	// Two messages whose only candidate pair is the same ordered pair
	// cannot both be explained.
	tr := trace.NewBuilder([]string{"a", "b"}).
		StartPeriod().
		Exec("a", 0, 10).
		Msg("m1", 11, 12).
		Msg("m2", 13, 14).
		Exec("b", 20, 30).
		MustBuild()
	ts := MustTaskSet("a", "b")
	d := Bottom(ts)
	d.Set(0, 1, lattice.Fwd)
	d.Set(1, 0, lattice.Bwd)
	if Match(d, tr.Periods[0], CandidatePolicy{}) {
		t.Error("two messages on one pair should not match")
	}
	// With <->? everywhere both directions... still only pair (a,b)
	// and (b,a); (b,a) is not timing-feasible, so Top fails too.
	if Match(Top(ts), tr.Periods[0], CandidatePolicy{}) {
		t.Error("Top should not match: only one feasible pair for two messages")
	}
}

func TestMatchBacktracking(t *testing.T) {
	// m1 can be (a,c) or (b,c); m2 only (a,c). A greedy assignment of
	// m1 to (a,c) must backtrack.
	tr := trace.NewBuilder([]string{"a", "b", "c"}).
		StartPeriod().
		Exec("a", 0, 10).
		Exec("b", 0, 12).
		Msg("m1", 13, 14). // senders a,b
		Msg("m2", 15, 16). // senders a,b
		Exec("c", 20, 30).
		MustBuild()
	ts := MustTaskSet("a", "b", "c")
	d := Bottom(ts)
	// allow only (a,c) and (b,c)
	d.Set(0, 2, lattice.FwdMaybe)
	d.Set(2, 0, lattice.BwdMaybe)
	d.Set(1, 2, lattice.FwdMaybe)
	d.Set(2, 1, lattice.BwdMaybe)
	if !Match(d, tr.Periods[0], CandidatePolicy{}) {
		t.Error("assignment {m1:(a,c), m2:(b,c)} (or swap) exists; Match failed")
	}
}

func TestMatchTopOnFigure2(t *testing.T) {
	tr := figure2()
	ts := MustTaskSet(tr.Tasks...)
	ok, fail := MatchTrace(Top(ts), tr, CandidatePolicy{})
	if !ok {
		t.Errorf("Top should match the whole paper trace, failed at period %d", fail)
	}
}

func TestMatchBottomFailsWithMessages(t *testing.T) {
	tr := figure2()
	ts := MustTaskSet(tr.Tasks...)
	ok, fail := MatchTrace(Bottom(ts), tr, CandidatePolicy{})
	if ok {
		t.Error("Bottom cannot explain any message")
	}
	if fail != 0 {
		t.Errorf("first failure at period %d, want 0", fail)
	}
}

func TestMatchEmptyPeriod(t *testing.T) {
	ts := MustTaskSet("a", "b")
	p := &trace.Period{Execs: map[string]trace.Interval{}}
	if !Match(Bottom(ts), p, CandidatePolicy{}) {
		t.Error("empty period should match Bottom")
	}
}

func TestMatchTraceAllMatchIndex(t *testing.T) {
	tr := figure2()
	ts := MustTaskSet(tr.Tasks...)
	if _, idx := MatchTrace(Top(ts), tr, CandidatePolicy{}); idx != -1 {
		t.Errorf("index = %d, want -1", idx)
	}
}

// assignableBrute is the reference for Matcher.Assignable: it tries
// every pair for every message, in order.
func assignableBrute(allowed [][]Pair, used map[Pair]bool, k int) bool {
	if k == len(allowed) {
		return true
	}
	for _, pr := range allowed[k] {
		if used[pr] {
			continue
		}
		used[pr] = true
		ok := assignableBrute(allowed, used, k+1)
		delete(used, pr)
		if ok {
			return true
		}
	}
	return false
}

// TestMatcherAgreesWithBruteForce: on random message/pair lists over
// up to four tasks, with more messages than pairs in some, the
// augmenting-path matcher agrees with exhaustive search, call after
// call on one reused Matcher.
func TestMatcherAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var m Matcher
	var yes, no int
	for trial := 0; trial < 3000; trial++ {
		n := 2 + rng.Intn(3)
		allowed := make([][]Pair, rng.Intn(7))
		for mi := range allowed {
			for range rng.Intn(4) {
				s, r := rng.Intn(n), rng.Intn(n)
				if s != r {
					allowed[mi] = append(allowed[mi], Pair{S: s, R: r})
				}
			}
		}
		want := assignableBrute(allowed, map[Pair]bool{}, 0)
		if got := m.Assignable(allowed); got != want {
			t.Fatalf("trial %d: Assignable(%v) = %v, want %v", trial, allowed, got, want)
		}
		if want {
			yes++
		} else {
			no++
		}
	}
	if yes == 0 || no == 0 {
		t.Fatalf("%d assignable and %d unassignable inputs; test premise broken", yes, no)
	}
}

// TestMatcherPigeonhole: k+1 messages over the same k pairs have no
// assignment. Search that backtracks over messages tries k! partial
// assignments before it gives up; the matcher answers in polynomial
// time and, once grown, without allocating.
func TestMatcherPigeonhole(t *testing.T) {
	const n = 12
	var pairs []Pair
	for r := 1; r < n; r++ {
		pairs = append(pairs, Pair{S: 0, R: r})
	}
	allowed := make([][]Pair, len(pairs)+1)
	for i := range allowed {
		allowed[i] = pairs
	}
	var m Matcher
	if m.Assignable(allowed) {
		t.Fatal("more messages than pairs reported assignable")
	}
	if !m.Assignable(allowed[1:]) {
		t.Fatal("as many messages as pairs reported unassignable")
	}
	if a := testing.AllocsPerRun(20, func() { m.Assignable(allowed) }); a != 0 {
		t.Errorf("Assignable allocates %.0f times per call", a)
	}
}
