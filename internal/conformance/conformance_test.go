package conformance

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// TestFigure1Truth pins the enumerated ground truth of the paper's
// Figure-1 design: the disjunction t1 sends to t2 and/or t3 each
// period (both edges conditional from t1's side), while t2 fires only
// when t1 chose it — so from t2's side the receive from t1 and the
// send to t4 are both firm. Pairs that never communicate directly
// (t1–t4, t2–t3) are independent.
func TestFigure1Truth(t *testing.T) {
	truth, ok := TruthFromModel(model.Figure1(), maxTruthChoiceBits)
	if !ok {
		t.Fatal("TruthFromModel rejected Figure 1")
	}
	ts := truth.TaskSet()
	at := func(a, b string) lattice.Value { return truth.At(ts.Index(a), ts.Index(b)) }
	want := map[[2]string]lattice.Value{
		{"t1", "t2"}: lattice.FwdMaybe,
		{"t1", "t3"}: lattice.FwdMaybe,
		{"t1", "t4"}: lattice.Par,
		{"t2", "t1"}: lattice.Bwd,
		{"t2", "t3"}: lattice.Par,
		{"t2", "t4"}: lattice.Fwd,
		{"t3", "t4"}: lattice.Fwd,
		{"t4", "t2"}: lattice.BwdMaybe,
		{"t4", "t1"}: lattice.Par,
	}
	for pair, w := range want {
		if got := at(pair[0], pair[1]); got != w {
			t.Errorf("truth(%s,%s) = %v, want %v", pair[0], pair[1], got, w)
		}
	}
}

func TestTruthRejectsSyncModels(t *testing.T) {
	if _, ok := TruthFromModel(model.GMStyleLite(), maxTruthChoiceBits); ok {
		t.Fatal("TruthFromModel accepted a model with sync gating; broadcast frames have no point-to-point truth")
	}
}

// TestCorpusRoundTrip generates the golden corpus, writes it, reloads
// it and checks the reload is equivalent.
func TestCorpusRoundTrip(t *testing.T) {
	c, err := GenerateCorpus()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := WriteCorpus(dir, c); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(c.Entries) {
		t.Fatalf("reloaded %d entries, wrote %d", len(got.Entries), len(c.Entries))
	}
	byName := map[string]*Entry{}
	for _, e := range got.Entries {
		byName[e.Name] = e
	}
	for _, e := range c.Entries {
		r, ok := byName[e.Name]
		if !ok {
			t.Fatalf("entry %s missing after round trip", e.Name)
		}
		if r.Exact != e.Exact || r.Thm2 != e.Thm2 || len(r.Bounds) != len(e.Bounds) {
			t.Errorf("entry %s manifest changed across round trip", e.Name)
		}
		if len(r.Trace.Periods) != len(e.Trace.Periods) {
			t.Errorf("entry %s: %d periods after reload, want %d", e.Name, len(r.Trace.Periods), len(e.Trace.Periods))
		}
		if (r.Truth == nil) != (e.Truth == nil) {
			t.Errorf("entry %s: truth presence changed across round trip", e.Name)
		} else if r.Truth != nil && !r.Truth.Equal(e.Truth) {
			t.Errorf("entry %s: truth changed across round trip", e.Name)
		}
	}
}

// TestRunGeneratedCorpus is the package's main empirical check: every
// oracle must pass (or be explicitly skipped) on the generated golden
// corpus.
func TestRunGeneratedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run is not short")
	}
	c, err := GenerateCorpus()
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(c, nil)
	if !rep.Ok() {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		t.Fatalf("conformance run failed:\n%s", raw)
	}
	if rep.Passed == 0 {
		t.Fatal("no oracle passed; the run was vacuous")
	}
	for _, er := range rep.Entries {
		for _, res := range er.Results {
			t.Logf("%s/%s: %s (%dms)", er.Name, res.Oracle, res.Status, res.ElapsedMS)
		}
	}
}

// TestRunCommittedCorpus runs the oracles over the corpus as committed
// under testdata/corpus, guarding against drift between the generator
// and the checked-in files.
func TestRunCommittedCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus run is not short")
	}
	dir := filepath.Join("..", "..", "testdata", "corpus")
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		t.Skip("no committed corpus (run `bbconform -gen` to create one)")
	}
	c, err := LoadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(c, nil)
	if !rep.Ok() {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		t.Fatalf("conformance run failed on committed corpus:\n%s", raw)
	}
}

func TestSmoke(t *testing.T) {
	if err := Smoke(); err != nil {
		t.Fatal(err)
	}
}

func TestLatticeLaws(t *testing.T) {
	if vs := LatticeLaws(); len(vs) > 0 {
		t.Fatalf("lattice laws violated: %v", vs)
	}
}

func TestFingerprintKeyAgreement(t *testing.T) {
	if vs := FingerprintKeyAgreement(); len(vs) > 0 {
		t.Fatalf("fingerprint/key disagreement: %v", vs)
	}
}

func TestLoadCorpusRejectsVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "VERSION"), []byte("999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCorpus(dir)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version mismatch error, got %v", err)
	}
}

func TestLoadCorpusRejectsNameMismatch(t *testing.T) {
	dir := t.TempDir()
	c := &Corpus{Version: CorpusVersion, Entries: []*Entry{{
		Manifest: Manifest{Name: "good", Bounds: []int{2}},
		Trace:    trace.PaperFigure2(),
	}}}
	if err := WriteCorpus(dir, c); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(dir, "good"), filepath.Join(dir, "renamed")); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCorpus(dir); err == nil {
		t.Fatal("want manifest/directory name mismatch error, got nil")
	}
}

func TestLoadCorpusRejectsThm2WithoutTruth(t *testing.T) {
	dir := t.TempDir()
	c := &Corpus{Version: CorpusVersion, Entries: []*Entry{{
		Manifest: Manifest{Name: "bad", Bounds: []int{2}, Exact: true, Thm2: true},
		Trace:    trace.PaperFigure2(),
	}}}
	if err := WriteCorpus(dir, c); err != nil {
		t.Fatal(err)
	}
	_, err := LoadCorpus(dir)
	if err == nil || !strings.Contains(err.Error(), "thm2") {
		t.Fatalf("want thm2-requires-truth error, got %v", err)
	}
}

// TestThm2CatchesDemotedTruth duplicates the smoke fault injection at
// the test level so `go test` alone exercises mutation detection.
func TestThm2CatchesDemotedTruth(t *testing.T) {
	truth, ok := TruthFromModel(model.Figure1(), maxTruthChoiceBits)
	if !ok {
		t.Fatal("TruthFromModel rejected Figure 1")
	}
	demoted := truth.Clone()
	ts := demoted.TaskSet()
	demoted.Set(ts.Index("t1"), ts.Index("t2"), lattice.Par)
	vs, err := Thm2Soundness(trace.PaperFigure2(), demoted, depfunc.CandidatePolicy{}, MaxExactHypotheses)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) == 0 {
		t.Fatal("thm2 oracle missed a demoted ground-truth entry")
	}
}

// TestLemmaBound1CaseStudy checks the paper's Lemma at case-study
// scale: on the 7-task lite model, over simulation seeds 1–10 of the
// published 27 periods each, the bound-1 result's LUB equals the exact
// LUB. Only bound 1 is checked: at intermediate bounds the heuristic
// may settle on a different explanation (THEORY.md §5).
func TestLemmaBound1CaseStudy(t *testing.T) {
	pol := casestudy.LitePolicy()
	for seed := int64(1); seed <= 10; seed++ {
		tr, err := simTrace(casestudy.LiteModel(), casestudy.Periods, seed)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := learner.Learn(tr, learner.Options{Policy: pol})
		if err != nil {
			t.Fatalf("seed %d: exact: %v", seed, err)
		}
		one, err := learner.Learn(tr, learner.Options{Bound: 1, Policy: pol})
		if err != nil {
			t.Fatalf("seed %d: bound 1: %v", seed, err)
		}
		if !one.LUB.Equal(exact.LUB) {
			t.Errorf("seed %d: bound-1 LUB %q differs from exact LUB %q", seed, one.LUB.Key(), exact.LUB.Key())
		}
	}
}
