package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// skipCounter records whether the last period_end was marked skipped.
type skipCounter struct {
	obs.NopObserver
	last bool
}

func (c *skipCounter) OnPeriodEnd(e obs.PeriodEnd) { c.last = e.Skipped }

// skipCounts tallies one lockstep run. skipped counts the periods the
// engine skipped for either reason, fixed those whose entry state the
// saturated-hypothesis rule (fixedPoint) covered, and fallThrough
// those it missed only for want of a distinct assignment, of which
// fallThroughOK were learned without error.
type skipCounts struct {
	skipped, fixed, fallThrough, fallThroughOK int
}

func (c *skipCounts) add(o skipCounts) {
	c.skipped += o.skipped
	c.fixed += o.fixed
	c.fallThrough += o.fallThrough
	c.fallThroughOK += o.fallThroughOK
}

// diffSkip learns tr twice in lockstep, with both skip rules on and
// off, and fails at the first period after which the two engines
// disagree on an error, the ordered working set, the history, the
// model counters or a provenance chain, or at a period the saturated
// rule covers that the engine did not skip.
func diffSkip(t testing.TB, tr *trace.Trace, cfg Config) skipCounts {
	t.Helper()
	ts, err := depfunc.NewTaskSet(tr.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	var c skipCounts
	cnt := &skipCounter{}
	off := New(ts, cfg)
	cfg.Observer = cnt
	on := New(ts, cfg)
	off.noSkip = true
	for _, p := range tr.Periods {
		cands := depfunc.Candidates(p, ts, cfg.Policy)
		saturated := on.saturated(cands, execVector(p, ts))
		fixed := saturated && on.matcher.Assignable(cands)
		gen := on.Generation()
		errOn, errOff := on.ProcessPeriod(p), off.ProcessPeriod(p)
		if fmt.Sprint(errOn) != fmt.Sprint(errOff) {
			t.Fatalf("period %d: skips on: %v, skips off: %v", p.Index, errOn, errOff)
		}
		if saturated && !fixed {
			c.fallThrough++
			if errOn == nil {
				c.fallThroughOK++
			}
		}
		if errOn != nil {
			break
		}
		if fixed {
			c.fixed++
			if !cnt.last {
				t.Fatalf("period %d: the saturated hypothesis covers it, yet it ran", p.Index)
			}
		}
		if cnt.last {
			c.skipped++
		}
		// The generation moves exactly when the period ran.
		if moved := on.Generation() != gen; moved == cnt.last {
			t.Fatalf("period %d: skipped %v, yet the generation moved %v", p.Index, cnt.last, moved)
		}
		if len(on.cur) != len(off.cur) {
			t.Fatalf("period %d: %d live with skips, %d without", p.Index, len(on.cur), len(off.cur))
		}
		for i, h := range on.cur {
			if !h.D.Equal(&off.cur[i].D) {
				t.Fatalf("period %d: working set differs at %d:\n%s\n%s", p.Index, i, h.D.Key(), off.cur[i].D.Key())
			}
			if !slices.Equal(h.Provenance(), off.cur[i].Provenance()) {
				t.Fatalf("period %d: provenance of hypothesis %d differs", p.Index, i)
			}
		}
		if !slices.Equal(on.hist, off.hist) {
			t.Fatalf("period %d: history differs", p.Index)
		}
		a, b := on.Stats(), off.Stats()
		if a.Periods != b.Periods || a.Messages != b.Messages || a.Candidates != b.Candidates || a.Relaxations != b.Relaxations {
			t.Fatalf("period %d: counters differ: skips on %+v, skips off %+v", p.Index, a, b)
		}
	}
	return c
}

// randomShapeTrace builds a structurally valid random trace whose
// periods repeat a few random templates, so that shapes recur the way
// they do on a converging stream. Each template executes a random
// non-empty subset of the tasks one after another and places random
// messages in the gaps between a finished sender and a later receiver,
// at most one per ordered pair, so a consistent assignment exists.
// One template in four gives one or two of its at most maxMsgs
// messages to copies of another, placed in the original's gap, where
// they share its candidate pairs. When the pairs are too few for the
// original and its copies (one shared pair, say), no distinct
// assignment is left: the exact learner fails and the bounded one
// fails or gets through by merging. Message IDs are per occurrence:
// the engine's shape ignores them.
func randomShapeTrace(r *rand.Rand, nTasks, nTemplates, nPeriods, maxMsgs int) *trace.Trace {
	names := make([]string, nTasks)
	for i := range names {
		names[i] = fmt.Sprintf("t%d", i+1)
	}
	b := trace.NewBuilder(names)
	clock := int64(0)
	for range nTemplates {
		b.StartPeriod()
		start := make([]int64, nTasks)
		for i := range start {
			start[i] = -1
		}
		perm := r.Perm(nTasks)
		ran := perm[:1+r.Intn(nTasks)]
		for _, i := range ran {
			start[i] = clock
			b.Exec(names[i], clock, clock+10)
			clock += 30 // 10 running, then a gap for messages
		}
		used := map[[2]int]bool{}
		var rises []int64
		msgs, copies := r.Intn(maxMsgs+1), 0
		if msgs >= 2 && r.Intn(4) == 0 {
			copies = 1 + r.Intn(min(2, msgs-1))
			msgs -= copies
		}
		for m := range msgs {
			s := ran[r.Intn(len(ran))]
			end := start[s] + 10
			var rcv []int
			for i, st := range start {
				if st > end && !used[[2]int{s, i}] {
					rcv = append(rcv, i)
				}
			}
			if len(rcv) == 0 {
				continue
			}
			rc := rcv[r.Intn(len(rcv))]
			used[[2]int{s, rc}] = true
			rise := end + 1 + int64(r.Intn(3))
			b.Msg(fmt.Sprintf("m%d", m), rise, rise+2)
			rises = append(rises, rise)
		}
		if len(rises) > 0 && copies > 0 {
			// The copies fall at most 10 after the original rose,
			// and the next task starts at least 17 after it.
			rise := rises[r.Intn(len(rises))]
			for k := range copies {
				at := rise + 4 + 4*int64(k)
				b.Msg(fmt.Sprintf("c%d", k), at, at+2)
			}
		}
		clock += 100
	}
	templates := b.MustBuild().Periods
	tr := trace.New(names)
	for k := range nPeriods {
		p := templates[r.Intn(len(templates))].Clone()
		p.Index = k
		for i := range p.Msgs {
			p.Msgs[i].ID = fmt.Sprintf("p%d%s", k, p.Msgs[i].ID)
		}
		tr.Periods = append(tr.Periods, p)
	}
	return tr
}

// diffBounds are the working-set bounds the differential runs cover;
// 0 is the exact algorithm.
var diffBounds = []int{0, 1, 2, 4, 8, 16, 150}

// TestSkipDifferential: skipping the periods whose shape the memo
// holds changes nothing but the work counters. The lite case-study
// trace, the full case-study model at ten simulator seeds and random
// repeating-shape traces are learned with the memo on and off, at
// every bound of diffBounds (the full model at its bounded ones only:
// the exact algorithm cannot run it), with provenance on and off.
// Learning the full model with provenance costs seconds per seed, so
// it runs with provenance at seed 1 only.
func TestSkipDifferential(t *testing.T) {
	type input struct {
		name    string
		tr      *trace.Trace
		policy  depfunc.CandidatePolicy
		bounds  []int
		provMax int // largest bound learned with provenance on
	}
	inputs := []input{{"lite", casestudy.MustLiteTrace(), casestudy.LitePolicy(), diffBounds, 150}}
	for seed := int64(1); seed <= 10; seed++ {
		o, err := sim.Run(casestudy.FullModel(), sim.Options{Periods: casestudy.Periods, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		provMax := -1
		if seed == 1 {
			provMax = 150
		}
		inputs = append(inputs, input{fmt.Sprintf("full-s%d", seed), o.Trace, casestudy.FullPolicy(), diffBounds[1:], provMax})
	}
	r := rand.New(rand.NewSource(26))
	for k := range 20 {
		tr := randomShapeTrace(r, 3+r.Intn(3), 1+r.Intn(4), 12+r.Intn(12), 4)
		inputs = append(inputs, input{fmt.Sprintf("random%d", k), tr, depfunc.CandidatePolicy{}, diffBounds, 150})
	}
	var exact, bounded skipCounts
	for _, in := range inputs {
		for _, bound := range in.bounds {
			for _, prov := range []bool{false, true} {
				if prov && bound > in.provMax {
					continue
				}
				name := fmt.Sprintf("%s/b%d/prov=%v", in.name, bound, prov)
				t.Run(name, func(t *testing.T) {
					c := diffSkip(t, in.tr, Config{Bound: bound, Policy: in.policy, Provenance: prov})
					if bound == 0 {
						exact.add(c)
					} else {
						bounded.add(c)
					}
				})
			}
		}
	}
	t.Logf("exact: %+v; bounded: %+v", exact, bounded)
	// The comparison proves nothing about a branch the inputs never
	// take: either skip in either mode, and the saturated rule's
	// fall-through for want of an assignment, failing and succeeding.
	if exact.skipped == 0 || bounded.skipped == 0 || exact.fixed == 0 || bounded.fixed == 0 {
		t.Errorf("the inputs exercise too few skips: exact %+v, bounded %+v", exact, bounded)
	}
	if bounded.fallThroughOK == 0 {
		t.Errorf("the inputs never get through the saturated rule's fall-through by merging: bounded %+v", bounded)
	}
}

// TestSkipSaturatedCaseStudy: on the full case-study model, where the
// bounded learner soon holds a single hypothesis, the saturated rule
// skips periods at bounds 1, 16 and 150, and the engine agrees with
// the one that runs every period after each of them (diffSkip).
func TestSkipSaturatedCaseStudy(t *testing.T) {
	for _, bound := range []int{1, 16, 150} {
		var c skipCounts
		for seed := int64(11); seed <= 14; seed++ {
			o, err := sim.Run(casestudy.FullModel(), sim.Options{Periods: casestudy.Periods, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			c.add(diffSkip(t, o.Trace, Config{Bound: bound, Policy: casestudy.FullPolicy()}))
		}
		t.Logf("bound %d: %+v of %d periods", bound, c, 4*casestudy.Periods)
		if c.fixed == 0 {
			t.Errorf("bound %d: the saturated rule skipped no period", bound)
		}
	}
}

// saturatedTrace builds a four-task trace from three period templates
// whose every message has the single candidate pair (t1, t2) under
// oneToOne: a runs t1, t2 and t3 with one message, b runs t1, t2 and
// t4 with one message, c runs t1 and t2 with two messages. kinds
// picks the templates in period order.
func saturatedTrace(kinds string) *trace.Trace {
	names := []string{"t1", "t2", "t3", "t4"}
	b := trace.NewBuilder(names)
	b.StartPeriod().Exec("t1", 0, 10).Msg("m", 12, 14).Exec("t2", 20, 30).Exec("t3", 40, 50)
	b.StartPeriod().Exec("t1", 100, 110).Msg("m", 112, 114).Exec("t2", 120, 130).Exec("t4", 140, 150)
	b.StartPeriod().Exec("t1", 200, 210).Msg("m", 212, 214).Msg("n", 215, 217).Exec("t2", 220, 230)
	tmpl := b.MustBuild().Periods
	tr := trace.New(names)
	for k, c := range kinds {
		p := tmpl[c-'a'].Clone()
		p.Index = k
		tr.Periods = append(tr.Periods, p)
	}
	return tr
}

// oneToOne keeps the latest sender and the earliest receiver of each
// message.
var oneToOne = depfunc.CandidatePolicy{MaxSenders: 1, MaxReceivers: 1}

// TestSkipSaturatedGrowsHistory: a period the saturated rule skips
// still applies its history update, and when that update adds a mark
// the bounded memo is cleared, as after any processed period that
// changed the history.
func TestSkipSaturatedGrowsHistory(t *testing.T) {
	tr := saturatedTrace("aab")
	ts := depfunc.MustTaskSet(tr.Tasks...)
	cnt := &skipCounter{}
	e := New(ts, Config{Bound: 1, Policy: oneToOne, Observer: cnt})

	// The first a learns t1 → t2 and clears the memo; the second is
	// saturated, skipped and, as a no-op, enters the memo.
	for _, p := range tr.Periods[:2] {
		if err := e.ProcessPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	if !cnt.last || len(e.memo.words) == 0 {
		t.Fatalf("repeated period: skipped %v, memo holds %d words", cnt.last, len(e.memo.words))
	}
	// b marks t1, t2 and t4 as run without t3.
	hist := slices.Clone(e.hist)
	if err := e.ProcessPeriod(tr.Periods[2]); err != nil {
		t.Fatal(err)
	}
	if !cnt.last {
		t.Fatal("period b is saturated but ran")
	}
	if slices.Equal(hist, e.hist) {
		t.Fatal("period b did not grow the history")
	}
	if len(e.memo.words) != 0 {
		t.Errorf("the memo holds %d words after a skip that grew the history", len(e.memo.words))
	}
	if c := diffSkip(t, tr, Config{Bound: 1, Policy: oneToOne}); c.fixed != 2 {
		t.Errorf("saturated rule covered %d periods, want 2", c.fixed)
	}
}

// TestSkipSaturatedFallThrough: a period that saturates the single
// hypothesis but whose two messages share their only pair has no
// distinct assignment, so the rule lets it run, and it fails the same
// way with the skips on and off, exact and bounded.
func TestSkipSaturatedFallThrough(t *testing.T) {
	for _, bound := range []int{0, 1, 4} {
		c := diffSkip(t, saturatedTrace("aac"), Config{Bound: bound, Policy: oneToOne})
		if c.fixed != 1 || c.fallThrough != 1 || c.fallThroughOK != 0 {
			t.Errorf("bound %d: %+v, want one fixed period and one failed fall-through", bound, c)
		}
	}
}

// TestSkipFixedPointExactLite pins what the skip buys on the exact
// learner: on the lite case-study trace, whose 27 periods repeat a
// handful of shapes, most periods are skipped.
func TestSkipFixedPointExactLite(t *testing.T) {
	n := diffSkip(t, casestudy.MustLiteTrace(), Config{Policy: casestudy.LitePolicy()}).skipped
	if n < casestudy.Periods/2 {
		t.Errorf("exact lite skipped %d of %d periods", n, casestudy.Periods)
	}
}

// FuzzSkipDifferential runs the skips-on/skips-off comparison of
// TestSkipDifferential on random repeating-shape traces drawn from the
// fuzzer's seed and sizes.
func FuzzSkipDifferential(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2), uint8(16), uint8(0), false)
	f.Add(int64(2), uint8(4), uint8(3), uint8(20), uint8(2), true)
	f.Add(int64(3), uint8(5), uint8(1), uint8(8), uint8(16), false)
	f.Fuzz(func(t *testing.T, seed int64, tasks, templates, periods, bound uint8, prov bool) {
		r := rand.New(rand.NewSource(seed))
		tr := randomShapeTrace(r, 2+int(tasks%4), 1+int(templates%5), 1+int(periods%32), 4)
		diffSkip(t, tr, Config{Bound: int(bound % 32), Provenance: prov})
	})
}

// TestFixedPointZeroAlloc: once its scratch has grown, the saturated
// rule's check allocates nothing.
func TestFixedPointZeroAlloc(t *testing.T) {
	tr := saturatedTrace("a")
	ts := depfunc.MustTaskSet(tr.Tasks...)
	e := New(ts, Config{Bound: 1, Policy: oneToOne})
	p := tr.Periods[0]
	if err := e.ProcessPeriod(p); err != nil {
		t.Fatal(err)
	}
	cands, executed := depfunc.Candidates(p, ts, oneToOne), execVector(p, ts)
	if !e.fixedPoint(cands, executed) {
		t.Fatal("the learned period is no fixed point")
	}
	if a := testing.AllocsPerRun(50, func() { e.fixedPoint(cands, executed) }); a != 0 {
		t.Errorf("fixedPoint allocates %.0f times per call", a)
	}
}
