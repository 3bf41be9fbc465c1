package learner

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// replaySeed replays one differential case in isolation: every case
// logs its seed on failure, and
//
//	go test -run TestDifferentialBatchOnlineParallel -modelgen.seed=<seed>
//
// re-runs exactly that model, trace and mode sweep.
var replaySeed = flag.Int64("modelgen.seed", -1, "replay the differential case with this seed only")

// resultSig collapses a learning result into a comparable signature:
// every hypothesis key in order, the LUB, and the convergence flag.
func resultSig(r *Result) []string {
	sig := make([]string, 0, len(r.Hypotheses)+2)
	for _, d := range r.Hypotheses {
		sig = append(sig, d.Key())
	}
	sig = append(sig, "LUB:"+r.LUB.Key(), fmt.Sprintf("converged:%v", r.Converged))
	return sig
}

// replayOnline feeds the trace period by period through an Online
// session and returns its result.
func replayOnline(t *testing.T, tr *trace.Trace, opt Options) *Result {
	t.Helper()
	o, err := NewOnline(tr.Tasks, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := o.Result()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDifferentialBatchOnlineParallel is the cross-front-end property
// test: over ~200 randomized simulated traces, batch Learn and the
// incremental Online session must produce identical hypothesis sets,
// in both the bounded and — where tractable — the exact mode. This is
// the end-to-end check that the engine extraction changed structure,
// not behaviour.
func TestDifferentialBatchOnlineParallel(t *testing.T) {
	if *replaySeed >= 0 {
		runDifferentialCase(t, *replaySeed)
		return
	}
	if testing.Short() {
		t.Skip("differential property test is slow")
	}
	cases := 0
	exactCases := 0
	for iter := int64(0); cases < 200; iter++ {
		c, e := runDifferentialCase(t, differentialBaseSeed+iter)
		cases += c
		exactCases += e
	}
	if exactCases < 50 {
		t.Errorf("only %d exact-mode cases ran; the differential suite should cover both modes", exactCases)
	}
}

// differentialBaseSeed offsets case seeds so a replayed seed is
// self-identifying (no collision with other suites' small seeds).
const differentialBaseSeed = 1701_000_000

// runDifferentialCase runs one differential case. All randomness —
// model shape and simulator schedule — derives from the single seed,
// so a failure is replayable in isolation via -modelgen.seed. Returns
// how many (case, exact-mode case) quota units the seed contributed.
func runDifferentialCase(t *testing.T, seed int64) (cases, exactCases int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s\nreplay: go test -run TestDifferentialBatchOnlineParallel -modelgen.seed=%d",
			seed, fmt.Sprintf(format, args...), seed)
	}
	rng := rand.New(rand.NewSource(seed))
	var m *model.Model
	switch seed % 8 {
	case 0:
		m = model.Figure1()
	case 1:
		m = model.GMStyleLite()
	default:
		opt := model.DefaultRandomOptions()
		opt.Layers = 2 + rng.Intn(2)
		opt.TasksPerLayer = 1 + rng.Intn(2)
		opt.EdgeProb = 0.3 + rng.Float64()*0.6
		m = model.RandomModel(rng, opt)
	}
	out, err := sim.Run(m, sim.Options{Periods: 3 + rng.Intn(4), Seed: seed})
	if err != nil {
		fail("sim: %v", err)
	}
	tr := out.Trace

	// Exact and bounded; the exact mode is capped so an adversarial
	// random trace cannot blow up the suite, and a capped-out case
	// simply doesn't count towards the quota.
	for _, bound := range []int{0, 6} {
		opt := Options{Bound: bound, MaxHypotheses: 2000}
		base, err := Learn(tr, opt)
		if errors.Is(err, ErrTooManyHypotheses) {
			continue
		}
		if err != nil {
			fail("bound %d: %v", bound, err)
		}
		want := resultSig(base)

		if got := resultSig(replayOnline(t, tr, opt)); !reflect.DeepEqual(got, want) {
			fail("bound %d: online diverges from batch:\n got %v\nwant %v", bound, got, want)
		}
		cases++
		if bound == 0 {
			exactCases++
		}
	}
	return cases, exactCases
}

// TestDifferentialPinnedFigure2 pins the paper's worked example: for
// each mode (exact, and two heuristic bounds) the Figure 2 trace must
// produce one fixed derivation through both front ends, and every
// mode must agree on the recommended answer, the least upper bound of
// Table 1.
func TestDifferentialPinnedFigure2(t *testing.T) {
	tr := trace.PaperFigure2()
	const wantLUB = "LUB:0441200120012550"
	for _, bound := range []int{0, 2, 8} {
		base, err := Learn(tr, Options{Bound: bound})
		if err != nil {
			t.Fatal(err)
		}
		want := resultSig(base)
		if got := want[len(want)-2]; got != wantLUB {
			t.Errorf("bound %d: LUB = %s, want the pinned %s", bound, got, wantLUB)
		}
		if got := resultSig(replayOnline(t, tr, Options{Bound: bound})); !reflect.DeepEqual(got, want) {
			t.Errorf("bound %d: online diverges from the pinned derivation:\n got %v\nwant %v", bound, got, want)
		}
	}
}

// TestOnlineVerifyRequiresRetention: an online session asked to
// verify its results without a retained window must say so instead of
// silently skipping verification (the pre-engine behaviour).
func TestOnlineVerifyRequiresRetention(t *testing.T) {
	tr := trace.PaperFigure2()
	o, err := NewOnline(tr.Tasks, Options{VerifyResults: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := o.Result(); !errors.Is(err, ErrVerifyUnavailable) {
		t.Fatalf("Result error = %v, want ErrVerifyUnavailable", err)
	}
}

// TestOnlineVerifyAgainstRetainedWindow: with a window covering the
// whole trace, online verification matches batch verification; the
// ring buffer reports its fill level and wraps without corrupting the
// reassembled trace.
func TestOnlineVerifyAgainstRetainedWindow(t *testing.T) {
	tr := trace.PaperFigure2()
	batch, err := Learn(tr, Options{VerifyResults: true})
	if err != nil {
		t.Fatal(err)
	}

	opt := Options{VerifyResults: true, RetainPeriods: len(tr.Periods)}
	o, err := NewOnline(tr.Tasks, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
		if want := min(i+1, opt.RetainPeriods); o.RetainedPeriods() != want {
			t.Fatalf("after period %d: RetainedPeriods = %d, want %d", i, o.RetainedPeriods(), want)
		}
	}
	r, err := o.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultSig(r), resultSig(batch); !reflect.DeepEqual(got, want) {
		t.Errorf("verified online result diverges from batch:\n got %v\nwant %v", got, want)
	}

	// A wrapping window: the buffer holds only the most recent two
	// periods, verification runs against that suffix. The exact
	// algorithm's hypotheses match every period, so nothing drops and
	// the hypothesis set is unchanged.
	small, err := NewOnline(tr.Tasks, Options{VerifyResults: true, RetainPeriods: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Periods {
		if err := small.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	if small.RetainedPeriods() != 2 {
		t.Fatalf("RetainedPeriods = %d, want 2 after wrap", small.RetainedPeriods())
	}
	rs, err := small.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultSig(rs), resultSig(batch); !reflect.DeepEqual(got, want) {
		t.Errorf("wrapped-window result diverges:\n got %v\nwant %v", got, want)
	}
	if rs.Stats.DroppedUnsound != 0 {
		t.Errorf("DroppedUnsound = %d, want 0 on the exact algorithm", rs.Stats.DroppedUnsound)
	}
}

// TestOnlineRetentionIsDeepCopy: mutating a period after feeding it
// to the session must not corrupt the retained window.
func TestOnlineRetentionIsDeepCopy(t *testing.T) {
	tr := trace.PaperFigure2()
	o, err := NewOnline(tr.Tasks, Options{VerifyResults: true, RetainPeriods: len(tr.Periods)})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Periods {
		cp := p.Clone()
		if err := o.AddPeriod(cp); err != nil {
			t.Fatal(err)
		}
		// Vandalize the caller's copy after the fact.
		for i := range cp.Msgs {
			cp.Msgs[i].ID = "corrupted"
		}
	}
	r, err := o.Result()
	if err != nil {
		t.Fatal(err)
	}
	batch, _ := Learn(tr, Options{VerifyResults: true})
	if got, want := resultSig(r), resultSig(batch); !reflect.DeepEqual(got, want) {
		t.Errorf("retained window shares memory with caller periods:\n got %v\nwant %v", got, want)
	}
}
