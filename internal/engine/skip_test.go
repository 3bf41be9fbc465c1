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

// skipCounter counts the period_end events marked skipped.
type skipCounter struct {
	obs.NopObserver
	n int
}

func (c *skipCounter) OnPeriodEnd(e obs.PeriodEnd) {
	if e.Skipped {
		c.n++
	}
}

// diffSkip learns tr twice in lockstep, with the period-shape memo on
// and off, and fails at the first period after which the two engines
// disagree on an error, the ordered working set, the history, the
// model counters or a provenance chain. It returns how many periods
// the memo skipped.
func diffSkip(t testing.TB, tr *trace.Trace, cfg Config) int {
	t.Helper()
	ts, err := depfunc.NewTaskSet(tr.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	cnt := &skipCounter{}
	off := New(ts, cfg)
	cfg.Observer = cnt
	on := New(ts, cfg)
	off.noMemo = true
	for _, p := range tr.Periods {
		errOn, errOff := on.ProcessPeriod(p), off.ProcessPeriod(p)
		if fmt.Sprint(errOn) != fmt.Sprint(errOff) {
			t.Fatalf("period %d: memo on: %v, memo off: %v", p.Index, errOn, errOff)
		}
		if errOn != nil {
			break
		}
		if len(on.cur) != len(off.cur) {
			t.Fatalf("period %d: %d live with the memo, %d without", p.Index, len(on.cur), len(off.cur))
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
			t.Fatalf("period %d: counters differ: memo on %+v, memo off %+v", p.Index, a, b)
		}
	}
	return cnt.n
}

// randomShapeTrace builds a structurally valid random trace whose
// periods repeat a few random templates, so that shapes recur the way
// they do on a converging stream. Each template executes a random
// non-empty subset of the tasks one after another and places random
// messages in the gaps between a finished sender and a later receiver,
// at most one per ordered pair, so a consistent assignment always
// exists. Message IDs are per occurrence: the engine's shape ignores
// them.
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
		for m := range r.Intn(maxMsgs + 1) {
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
	skipped := map[bool]int{}
	for _, in := range inputs {
		for _, bound := range in.bounds {
			for _, prov := range []bool{false, true} {
				if prov && bound > in.provMax {
					continue
				}
				name := fmt.Sprintf("%s/b%d/prov=%v", in.name, bound, prov)
				t.Run(name, func(t *testing.T) {
					skipped[bound == 0] += diffSkip(t, in.tr, Config{Bound: bound, Policy: in.policy, Provenance: prov})
				})
			}
		}
	}
	t.Logf("skipped %d exact and %d bounded periods", skipped[true], skipped[false])
	// The comparison proves nothing if nothing was skipped.
	if skipped[true] == 0 || skipped[false] == 0 {
		t.Errorf("skipped %d exact and %d bounded periods; the inputs exercise no skip", skipped[true], skipped[false])
	}
}

// TestSkipFixedPointExactLite pins what the skip buys on the exact
// learner: on the lite case-study trace, whose 27 periods repeat a
// handful of shapes, most periods are skipped.
func TestSkipFixedPointExactLite(t *testing.T) {
	n := diffSkip(t, casestudy.MustLiteTrace(), Config{Policy: casestudy.LitePolicy()})
	if n < casestudy.Periods/2 {
		t.Errorf("exact lite skipped %d of %d periods", n, casestudy.Periods)
	}
}

// FuzzSkipDifferential runs the memo-on/memo-off comparison of
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
