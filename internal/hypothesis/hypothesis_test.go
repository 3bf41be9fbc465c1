package hypothesis

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

func ts3() *depfunc.TaskSet { return depfunc.MustTaskSet("a", "b", "c") }

func TestBottom(t *testing.T) {
	h := Bottom(ts3())
	if h.Weight() != 0 {
		t.Errorf("Weight = %d, want 0", h.Weight())
	}
	if h.AssumptionCount() != 0 {
		t.Errorf("assumptions = %d", h.AssumptionCount())
	}
	if !h.D.Equal(depfunc.Bottom(ts3())) {
		t.Error("D is not bottom")
	}
}

func TestAssumeStampsBothSides(t *testing.T) {
	h := Bottom(ts3())
	c := h.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{})
	if c == nil {
		t.Fatal("Assume returned nil")
	}
	if c.D.At(0, 1) != lattice.Fwd || c.D.At(1, 0) != lattice.Bwd {
		t.Errorf("entries = %v, %v", c.D.At(0, 1), c.D.At(1, 0))
	}
	// Parent unchanged.
	if h.D.At(0, 1) != lattice.Par {
		t.Error("Assume mutated parent")
	}
	if !c.Assumed(depfunc.Pair{S: 0, R: 1}) {
		t.Error("assumption not recorded")
	}
	if c.Weight() != 2 {
		t.Errorf("Weight = %d, want 2", c.Weight())
	}
}

func TestAssumeConditionalStamps(t *testing.T) {
	h := Bottom(ts3())
	c := h.Assume(depfunc.Pair{S: 0, R: 1}, lattice.FwdMaybe, lattice.Bwd, StepCtx{})
	if c.D.At(0, 1) != lattice.FwdMaybe || c.D.At(1, 0) != lattice.Bwd {
		t.Errorf("entries = %v, %v", c.D.At(0, 1), c.D.At(1, 0))
	}
	if c.Weight() != 5 {
		t.Errorf("Weight = %d, want 5", c.Weight())
	}
}

func TestAssumeDuplicatePairRejected(t *testing.T) {
	h := Bottom(ts3())
	c := h.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{})
	if c.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{}) != nil {
		t.Error("duplicate pair accepted")
	}
	// The reverse pair is a different ordered pair and is allowed.
	if c.Assume(depfunc.Pair{S: 1, R: 0}, lattice.Fwd, lattice.Bwd, StepCtx{}) == nil {
		t.Error("reverse pair rejected")
	}
}

func TestAssumeJoinSemantics(t *testing.T) {
	h := Bottom(ts3())
	c1 := h.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{})
	c1.ClearAssumptions()
	// Re-assuming in a "new period" with the reverse direction joins
	// to <-> on both sides.
	c2 := c1.Assume(depfunc.Pair{S: 1, R: 0}, lattice.Fwd, lattice.Bwd, StepCtx{})
	if c2.D.At(1, 0) != lattice.Bi || c2.D.At(0, 1) != lattice.Bi {
		t.Errorf("entries = %v, %v, want <-> both", c2.D.At(1, 0), c2.D.At(0, 1))
	}
	if c2.Weight() != c2.D.Weight() {
		t.Errorf("cached weight %d != recomputed %d", c2.Weight(), c2.D.Weight())
	}
}

func TestClearAssumptions(t *testing.T) {
	h := Bottom(ts3()).Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{})
	h.ClearAssumptions()
	if h.AssumptionCount() != 0 {
		t.Error("assumptions survived ClearAssumptions")
	}
	if h.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{}) == nil {
		t.Error("pair still blocked after ClearAssumptions")
	}
}

func TestRelaxUpdatesWeight(t *testing.T) {
	h := Bottom(ts3()).Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{})
	// A period where a executed but b did not.
	n := h.Relax(depfunc.Violations(h.D.TaskSet(), func(i int) bool { return i == 0 || i == 2 }, nil), StepCtx{})
	if n != 1 {
		t.Fatalf("relaxed %d, want 1", n)
	}
	if h.D.At(0, 1) != lattice.FwdMaybe {
		t.Errorf("entry = %v, want ->?", h.D.At(0, 1))
	}
	if h.Weight() != h.D.Weight() {
		t.Errorf("cached weight %d != recomputed %d", h.Weight(), h.D.Weight())
	}
}

func TestMergeJoinsAndIntersects(t *testing.T) {
	base := Bottom(ts3())
	h1 := base.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{})
	shared := depfunc.Pair{S: 0, R: 2}
	h1 = h1.Assume(shared, lattice.Fwd, lattice.Bwd, StepCtx{})
	h2 := base.Assume(depfunc.Pair{S: 1, R: 2}, lattice.Fwd, lattice.Bwd, StepCtx{})
	h2 = h2.Assume(shared, lattice.Fwd, lattice.Bwd, StepCtx{})

	m := h1.Merge(h2, StepCtx{})
	if m.D.At(0, 1) != lattice.Fwd || m.D.At(1, 2) != lattice.Fwd || m.D.At(0, 2) != lattice.Fwd {
		t.Errorf("merged D wrong:\n%s", m.D.Table())
	}
	if !m.Assumed(shared) {
		t.Error("shared assumption lost in merge")
	}
	if m.Assumed(depfunc.Pair{S: 0, R: 1}) || m.Assumed(depfunc.Pair{S: 1, R: 2}) {
		t.Error("non-shared assumption survived intersection")
	}
	if m.Weight() != m.D.Weight() {
		t.Error("merged weight not recomputed")
	}
	// Operands unchanged.
	if h1.D.At(1, 2) != lattice.Par {
		t.Error("Merge mutated operand")
	}
}

func TestKeyIncludesAssumptions(t *testing.T) {
	base := Bottom(ts3())
	// Same D, different assumptions: (a,b) assumed with no-op stamp.
	h := base.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{})
	h.ClearAssumptions()
	c1 := h.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{})
	c2 := h.Clone()
	if c1.Key() == c2.Key() {
		t.Error("keys equal despite different assumptions")
	}
	if h.Key() != c2.Key() {
		t.Error("clone key differs")
	}
}

func TestKeyCanonicalOrder(t *testing.T) {
	base := Bottom(ts3())
	p1, p2 := depfunc.Pair{S: 0, R: 1}, depfunc.Pair{S: 1, R: 2}
	a := base.Assume(p1, lattice.Fwd, lattice.Bwd, StepCtx{}).Assume(p2, lattice.Fwd, lattice.Bwd, StepCtx{})
	b := base.Assume(p2, lattice.Fwd, lattice.Bwd, StepCtx{}).Assume(p1, lattice.Fwd, lattice.Bwd, StepCtx{})
	if a.Key() != b.Key() {
		t.Error("assumption order leaked into key")
	}
}

func TestCloneIndependence(t *testing.T) {
	h := Bottom(ts3()).Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{})
	cp := h.Clone()
	cp.ClearAssumptions()
	if h.AssumptionCount() != 1 {
		t.Error("Clone shares assumption set")
	}
	cp2 := h.Clone()
	cp2.D.Set(1, 2, lattice.BiMaybe)
	if h.D.At(1, 2) != lattice.Par {
		t.Error("Clone shares matrix")
	}
}

func TestFromDepFunc(t *testing.T) {
	d := depfunc.Bottom(ts3())
	d.Set(0, 1, lattice.FwdMaybe)
	h := FromDepFunc(d)
	if h.Weight() != d.Weight() {
		t.Errorf("weight = %d, want %d", h.Weight(), d.Weight())
	}
	d.Set(0, 2, lattice.BiMaybe)
	if h.D.At(0, 2) != lattice.Par {
		t.Error("FromDepFunc did not clone")
	}
}

func TestProvenanceRecording(t *testing.T) {
	base := Bottom(ts3())
	if base.ProvenanceEnabled() || base.Provenance() != nil {
		t.Fatal("recording on by default")
	}
	base.EnableProvenance()
	ctx := StepCtx{Period: 1, Msg: 0, MsgID: "m1"}
	c := base.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, ctx)
	steps := c.Provenance()
	if len(steps) != 2 {
		t.Fatalf("steps = %+v, want forward+backward", steps)
	}
	want := Step{Period: 1, Msg: 0, MsgID: "m1", S: 0, R: 1, I: 0, J: 1,
		Old: lattice.Par, New: lattice.Fwd, Action: "assume"}
	if steps[0] != want {
		t.Errorf("first step = %+v, want %+v", steps[0], want)
	}
	if steps[1].I != 1 || steps[1].J != 0 || steps[1].New != lattice.Bwd {
		t.Errorf("second step = %+v", steps[1])
	}
	// The parent's chain is untouched (persistent sharing).
	if base.Provenance() != nil {
		t.Error("child recording mutated the parent chain")
	}
	// A no-op join (same assumption again via another path) records
	// nothing new.
	c2 := c.Assume(depfunc.Pair{S: 1, R: 0}, lattice.Bwd, lattice.Fwd, StepCtx{Period: 1, Msg: 1, MsgID: "m2"})
	if got := len(c2.Provenance()); got != 2 {
		t.Errorf("no-op join appended steps: chain length %d, want 2", got)
	}
	// Clone shares the chain.
	if got := c.Clone().Provenance(); !reflect.DeepEqual(got, steps) {
		t.Errorf("clone chain = %+v", got)
	}
}

func TestMergeProvenance(t *testing.T) {
	base := Bottom(ts3())
	base.EnableProvenance()
	ctx := StepCtx{Period: 0, Msg: 0, MsgID: "m1"}
	a := base.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, ctx)
	b := base.Assume(depfunc.Pair{S: 1, R: 2}, lattice.Fwd, lattice.Bwd, ctx)
	m := a.Merge(b, StepCtx{Period: 0, Msg: 1})
	steps := m.Provenance()
	// a's two assume steps survive; the join raised (1,2) and (2,1)
	// from b, recorded as merge steps.
	if len(steps) != 4 {
		t.Fatalf("merged chain = %+v, want 4 steps", steps)
	}
	var merges int
	for _, s := range steps {
		if s.Action == "merge" {
			merges++
			if s.Period != 0 || s.Msg != 1 || s.S != -1 || s.R != -1 {
				t.Errorf("merge step context = %+v", s)
			}
			if !(s.I == 1 && s.J == 2 && s.New == lattice.Fwd) &&
				!(s.I == 2 && s.J == 1 && s.New == lattice.Bwd) {
				t.Errorf("merge step entry = %+v", s)
			}
		}
	}
	if merges != 2 {
		t.Errorf("merge steps = %d, want 2", merges)
	}
}

func TestRelaxProvenance(t *testing.T) {
	base := Bottom(ts3())
	base.EnableProvenance()
	h := base.Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, StepCtx{Period: 0, Msg: 0, MsgID: "m1"})
	// Period executes t1 (index 0) and t3 (index 2) but not t2: the
	// unconditional -> from t1 to t2 is violated and must relax.
	n := h.Relax(depfunc.Violations(h.D.TaskSet(), func(i int) bool { return i == 0 || i == 2 }, nil), StepCtx{Period: 0})
	if n == 0 {
		t.Fatal("nothing relaxed; test premise broken")
	}
	steps := h.Provenance()
	var relaxes int
	for _, s := range steps {
		if s.Action == "relax" {
			relaxes++
			if s.Msg != -1 || s.S != -1 || s.MsgID != "" {
				t.Errorf("relax step context = %+v", s)
			}
			if s.I == 0 && s.J == 1 && (s.Old != lattice.Fwd || s.New != lattice.FwdMaybe) {
				t.Errorf("relax transition = %+v", s)
			}
		}
	}
	if relaxes != n {
		t.Errorf("recorded %d relax steps, Relax reported %d", relaxes, n)
	}
}

// TestMergeWeightCached: the merged weight is exact on both paths —
// recounted when the join raised an entry, inherited from the receiver
// when it did not.
func TestMergeWeightCached(t *testing.T) {
	base := Bottom(ts3())
	ab := base.Assume(depfunc.Pair{S: 0, R: 1}, lattice.FwdMaybe, lattice.Bwd, StepCtx{})
	bc := base.Assume(depfunc.Pair{S: 1, R: 2}, lattice.Fwd, lattice.Bwd, StepCtx{})
	abc := ab.Assume(depfunc.Pair{S: 1, R: 2}, lattice.Fwd, lattice.Bwd, StepCtx{})

	changed := ab.Merge(bc, StepCtx{})
	if changed.D.Equal(&ab.D) {
		t.Fatal("test setup: join did not change the receiver")
	}
	unchanged := abc.Merge(bc, StepCtx{})
	if !unchanged.D.Equal(&abc.D) {
		t.Fatal("test setup: join changed the receiver")
	}
	for name, m := range map[string]*Hypothesis{"changed": changed, "unchanged": unchanged} {
		if m.Weight() != m.D.Weight() {
			t.Errorf("%s join: cached weight %d, recomputed %d", name, m.Weight(), m.D.Weight())
		}
	}
}

// TestMergeNoChangeAllocs pins the bounded heuristic's common case:
// merging a hypothesis that adds nothing, with an arena, allocates
// nothing once the arena's header freelist is warm.
func TestMergeNoChangeAllocs(t *testing.T) {
	var ar Arena
	ctx := StepCtx{Arena: &ar}
	shared := depfunc.Pair{S: 0, R: 2}
	base := Bottom(ts3())
	h1 := base.Assume(shared, lattice.Fwd, lattice.Bwd, ctx).
		Assume(depfunc.Pair{S: 0, R: 1}, lattice.Fwd, lattice.Bwd, ctx)
	h2 := base.Assume(shared, lattice.Fwd, lattice.Bwd, ctx)
	mark := ar
	merge := func() {
		m := h1.Merge(h2, ctx)
		if !m.D.Equal(&h1.D) || !m.Assumed(shared) {
			t.Fatal("no-change merge produced the wrong state")
		}
		m.Release(&ar)
		// Roll the cells back rather than Reset: h1 and h2's own
		// cells live in the same arena.
		ar.bi, ar.used = mark.bi, mark.used
	}
	if allocs := testing.AllocsPerRun(100, merge); allocs != 0 {
		t.Errorf("no-change merge allocates %v per run, want 0", allocs)
	}
}

// TestMergeIntersectsAssumptions: over random assumption lists, the
// merged set is exactly the intersection, with a matching count and
// fingerprint, whether the receiver's list is shared whole, shared in
// part or rebuilt.
func TestMergeIntersectsAssumptions(t *testing.T) {
	ts := depfunc.MustTaskSet("a", "b", "c", "d", "e")
	var pairs []depfunc.Pair
	for s := 0; s < ts.Len(); s++ {
		for r := 0; r < ts.Len(); r++ {
			if s != r {
				pairs = append(pairs, depfunc.Pair{S: s, R: r})
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	var ar Arena
	ctx := StepCtx{Arena: &ar}
	// Par stamps leave D at ⊥, so only the assumption sets differ.
	assumeRandom := func(pool []depfunc.Pair) *Hypothesis {
		h := Bottom(ts)
		for _, p := range pool {
			if rng.Intn(3) > 0 {
				h = h.Assume(p, lattice.Par, lattice.Par, ctx)
			}
		}
		return h
	}
	for trial := 0; trial < 300; trial++ {
		pool := pairs[:4+rng.Intn(8)]
		h, other := assumeRandom(pool), assumeRandom(pool)
		m := h.Merge(other, ctx)
		want := Bottom(ts)
		for _, p := range pool {
			if h.Assumed(p) && other.Assumed(p) {
				want = want.Assume(p, lattice.Par, lattice.Par, ctx)
			}
		}
		if !m.SameState(want) || m.AssumptionCount() != want.AssumptionCount() || m.Fingerprint() != want.Fingerprint() {
			t.Fatalf("trial %d: merged assumptions %s, want %s", trial, m.Key(), want.Key())
		}
	}
}
