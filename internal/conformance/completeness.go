package conformance

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// thm3Bounds are the heuristic bounds Thm3Completeness checks against
// the exact result.
var thm3Bounds = []int{1, 2, 4}

// thm3Seeds are the seeds of the three-task traces the "thm3" oracle
// runs over (thm3Trace).
var thm3Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}

// thm3Trace simulates a seeded random three-task design for two to
// five periods. model.RandomModel's only three-task design is the
// chain t0_0 → t1_0 → t2_0: every layer holds one task, so no task
// branches and every period runs all three. Two seeds in three
// therefore add the skip edge t0_0 → t2_0, and half of those make
// t0_0 a disjunction, so that periods differ in which tasks run and
// the learner's conditional stamps and relaxation come into play. The
// seed also picks the period count and the simulated timing.
func thm3Trace(seed int64) (*trace.Trace, error) {
	r := rand.New(rand.NewSource(seed))
	m := model.RandomModel(r, model.RandomOptions{Layers: 3, TasksPerLayer: 1})
	if v := r.Intn(3); v > 0 {
		id := 0
		for _, e := range m.Edges {
			id = max(id, e.CANID)
		}
		m.Edges = append(m.Edges, model.Edge{From: "t0_0", To: "t2_0", CANID: id + 1, DLC: 4})
		m.Tasks[2].Kind = model.Conjunction
		if v == 2 {
			m.Tasks[0].Kind = model.Disjunction
		}
	}
	return simTrace(m, 2+r.Intn(4), seed)
}

// thm3Sweep runs Thm3Completeness at thm3Bounds over the thm3Trace of
// every seed in thm3Seeds, under the causal candidate policy. Each
// violation's detail names its seed.
func thm3Sweep() ([]Violation, error) {
	var out []Violation
	for _, seed := range thm3Seeds {
		tr, err := thm3Trace(seed)
		if err != nil {
			return nil, err
		}
		vs, err := Thm3Completeness(tr, depfunc.CandidatePolicy{}, thm3Bounds)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		for _, v := range vs {
			v.Detail = fmt.Sprintf("seed %d: %s", seed, v.Detail)
			out = append(out, v)
		}
	}
	return out, nil
}

// Thm3Completeness checks Theorem 3 by exhaustion on a three-task
// trace. It enumerates all 7⁶ = 117,649 dependency functions over the
// trace's tasks, keeps those depfunc.MatchTrace accepts, and requires
// the exact learner's result to equal the ⊑-minimal elements of that
// consistent set: nothing consistent is missing below the result
// (completeness) and every result is itself consistent and minimal.
// It then requires every hypothesis the bounded heuristic returns at
// each of bounds to dominate (⊒) some exact result.
func Thm3Completeness(tr *trace.Trace, pol depfunc.CandidatePolicy, bounds []int) ([]Violation, error) {
	if len(tr.Tasks) != 3 {
		return nil, fmt.Errorf("conformance: thm3 enumerates three-task traces, got %d tasks", len(tr.Tasks))
	}
	exact, err := learner.Learn(tr, learner.Options{Policy: pol})
	if err != nil {
		return nil, fmt.Errorf("conformance: thm3: exact run: %w", err)
	}
	vs := compareMinimal(exact.Hypotheses, minimalConsistent(exact.TaskSet, tr, pol))
	for _, b := range bounds {
		res, err := learner.Learn(tr, learner.Options{Bound: b, Policy: pol})
		if err != nil {
			return nil, fmt.Errorf("conformance: thm3: bound %d: %w", b, err)
		}
		for i, h := range res.Hypotheses {
			if !someGeneralizedBy(exact.Hypotheses, h) {
				vs = append(vs, violationf("thm3/bounded", "bound %d: hypothesis %d dominates no exact result:\n%s",
					b, i, h.Table()))
			}
		}
	}
	return vs, nil
}

// compareMinimal reports every exact result that is not among the
// ⊑-minimal consistent functions, and every minimal function the exact
// result lacks.
func compareMinimal(exact, minimal []*depfunc.DepFunc) []Violation {
	var vs []Violation
	want := make(map[string]bool, len(minimal))
	for _, d := range minimal {
		want[d.Key()] = true
	}
	got := make(map[string]bool, len(exact))
	for i, h := range exact {
		got[h.Key()] = true
		if !want[h.Key()] {
			vs = append(vs, violationf("thm3/minimal", "exact hypothesis %d is not a ⊑-minimal consistent function:\n%s",
				i, h.Table()))
		}
	}
	for _, d := range minimal {
		if !got[d.Key()] {
			vs = append(vs, violationf("thm3/complete", "⊑-minimal consistent function missing from the exact result:\n%s",
				d.Table()))
		}
	}
	return vs
}

// minimalConsistent enumerates every dependency function over the
// three tasks of ts and returns the ⊑-minimal ones among those that
// match every period of tr, in ascending weight.
func minimalConsistent(ts *depfunc.TaskSet, tr *trace.Trace, pol depfunc.CandidatePolicy) []*depfunc.DepFunc {
	type entry struct{ i, j int }
	var entries []entry
	for i := 0; i < ts.Len(); i++ {
		for j := 0; j < ts.Len(); j++ {
			if i != j {
				entries = append(entries, entry{i, j})
			}
		}
	}
	vals := lattice.Values()
	total := 1
	for range entries {
		total *= len(vals)
	}
	decode := func(d *depfunc.DepFunc, code int) *depfunc.DepFunc {
		for _, e := range entries {
			d.Set(e.i, e.j, vals[code%len(vals)])
			code /= len(vals)
		}
		return d
	}
	// The codes are split into one contiguous chunk per CPU; joining
	// the chunks' finds in chunk order keeps the sequential order.
	type consistent struct{ code, weight int }
	workers := runtime.GOMAXPROCS(0)
	found := make([][]consistent, workers)
	var wg sync.WaitGroup
	for w := range found {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := depfunc.Bottom(ts)
			for code := w * total / workers; code < (w+1)*total/workers; code++ {
				if ok, _ := depfunc.MatchTrace(decode(d, code), tr, pol); ok {
					found[w] = append(found[w], consistent{code, d.Weight()})
				}
			}
		}()
	}
	wg.Wait()
	var cons []consistent
	for _, f := range found {
		cons = append(cons, f...)
	}
	// A function of strictly lower weight cannot equal d, and every
	// non-minimal function has a minimal one strictly below it, so
	// testing each function against the minimal ones found among the
	// strictly lighter decides minimality.
	sort.SliceStable(cons, func(a, b int) bool { return cons[a].weight < cons[b].weight })
	var out []*depfunc.DepFunc
	var fr depfunc.Frontier
	d := depfunc.Bottom(ts)
	lighter, w := 0, -1
	for _, c := range cons {
		if c.weight != w {
			w, lighter = c.weight, len(out)
		}
		decode(d, c.code)
		if fr.Covers(d, nil, lighter) {
			continue
		}
		fr.Add(d, nil)
		out = append(out, d.Clone())
	}
	return out
}
