package learner_test

import (
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/conformance"
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// This file is the differential oracle tier for the packed
// word-parallel lattice kernel: every learning result is re-derived
// scalar-side through depfunc.Reference (the retained table-driven
// kernel) and the packed and scalar sides must agree on every matrix
// entry, fingerprint, weight and canonical key — over the full golden
// conformance corpus and a few hundred randomized simulated traces.
// It lives in the external test package
// because the golden corpus generator imports the learner.

// packedReplaySeed replays one randomized case in isolation (the
// packed-tier analogue of -modelgen.seed, which the in-package
// differential suite already claims).
var packedReplaySeed = flag.Int64("modelgen.packedseed", -1, "replay the packed-oracle case with this seed only")

// refVerify replays every returned matrix through the scalar reference
// kernel: each hypothesis must match its scalar reconstruction cell by
// cell, fingerprint, weight and key, and the packed LUB must equal the
// scalar fold of the hypotheses under the table-driven join.
func refVerify(r *learner.Result) error {
	var lub *depfunc.Reference
	for i, d := range r.Hypotheses {
		ref := depfunc.RefOf(d)
		if err := ref.Matches(d); err != nil {
			return fmt.Errorf("hypothesis %d: %w", i, err)
		}
		if lub == nil {
			lub = ref
		} else {
			lub.JoinWith(ref)
		}
	}
	if lub != nil {
		if err := lub.Matches(r.LUB); err != nil {
			return fmt.Errorf("LUB vs scalar join fold: %w", err)
		}
	}
	return nil
}

// checkReference runs Learn over tr at the given options and fails
// unless the result verifies against the scalar reference kernel.
func checkReference(tr *trace.Trace, opt learner.Options) error {
	res, err := learner.Learn(tr, opt)
	if err != nil {
		return err
	}
	if err := refVerify(res); err != nil {
		return fmt.Errorf("scalar reference disagrees: %w", err)
	}
	return nil
}

// TestPackedOracleConformanceCorpus runs the packed-vs-scalar oracle
// over every entry of the golden conformance corpus, at every bound
// the entry's manifest declares (plus the exact mode where tractable).
func TestPackedOracleConformanceCorpus(t *testing.T) {
	c, err := conformance.GenerateCorpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range c.Entries {
		bounds := append([]int(nil), e.Bounds...)
		if e.Exact {
			bounds = append(bounds, 0)
		}
		for _, bound := range bounds {
			opt := learner.Options{
				Bound:         bound,
				Policy:        e.Policy(),
				MaxHypotheses: conformance.MaxExactHypotheses,
			}
			if err := checkReference(e.Trace, opt); err != nil {
				t.Errorf("entry %s bound %d: %v", e.Name, bound, err)
			}
		}
	}
}

// TestPackedOracleRandomTraces sweeps the oracle over ~500 randomized
// simulated traces: random layered designs and the pinned catalog
// models under randomized schedules, in the bounded mode and — where
// tractable — the exact mode.
func TestPackedOracleRandomTraces(t *testing.T) {
	if *packedReplaySeed >= 0 {
		runPackedOracleCase(t, *packedReplaySeed)
		return
	}
	if testing.Short() {
		t.Skip("packed differential sweep is slow")
	}
	cases := 0
	for iter := int64(0); cases < 500; iter++ {
		cases += runPackedOracleCase(t, packedOracleBaseSeed+iter)
	}
}

// packedOracleBaseSeed offsets case seeds so a replayed seed is
// self-identifying.
const packedOracleBaseSeed = 2203_000_000

func runPackedOracleCase(t *testing.T, seed int64) (cases int) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d: %s\nreplay: go test -run TestPackedOracleRandomTraces -modelgen.packedseed=%d",
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
	for _, bound := range []int{0, 4 + int(seed%5)} {
		opt := learner.Options{Bound: bound, MaxHypotheses: 2000}
		if err := checkReference(out.Trace, opt); err != nil {
			if bound == 0 && errors.Is(err, learner.ErrTooManyHypotheses) {
				continue // intractable exact case; doesn't count
			}
			fail("bound %d: %v", bound, err)
		}
		cases++
	}
	return cases
}
