package conformance

import (
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// TestThm3Completeness runs the Theorem-3 oracle on every seeded
// three-task trace: the exact result must be exactly the ⊑-minimal
// consistent set, and every bounded result must dominate an exact one.
// It also checks that the seeds are not all alike: the exact results
// differ in size, and some period runs without one of the tasks.
func TestThm3Completeness(t *testing.T) {
	if len(thm3Seeds) < 20 {
		t.Fatalf("%d seeds, want at least 20", len(thm3Seeds))
	}
	sizes := map[int]bool{}
	partial := false
	for _, seed := range thm3Seeds {
		tr, err := thm3Trace(seed)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := Thm3Completeness(tr, depfunc.CandidatePolicy{}, thm3Bounds)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, v := range vs {
			t.Errorf("seed %d: %s: %s", seed, v.Property, v.Detail)
		}
		res, err := learner.Learn(tr, learner.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sizes[len(res.Hypotheses)] = true
		for _, p := range tr.Periods {
			partial = partial || len(p.Execs) < 3
		}
	}
	if len(sizes) < 2 {
		t.Errorf("every seed's exact result has the same size %v", sizes)
	}
	if !partial {
		t.Error("every period of every seed runs all three tasks")
	}
}

// TestThm3RejectsOtherTaskCounts: the enumeration is defined for three
// tasks only.
func TestThm3RejectsOtherTaskCounts(t *testing.T) {
	if _, err := Thm3Completeness(trace.PaperFigure2(), depfunc.CandidatePolicy{}, thm3Bounds); err == nil {
		t.Error("a four-task trace was accepted")
	}
}
