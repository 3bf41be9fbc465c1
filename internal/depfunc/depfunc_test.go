package depfunc

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/blackbox-rt/modelgen/internal/lattice"
)

func ts4() *TaskSet { return MustTaskSet("t1", "t2", "t3", "t4") }

// randDep builds a random dependency function over ts (diagonal ‖).
func randDep(r *rand.Rand, ts *TaskSet) *DepFunc {
	d := Bottom(ts)
	n := ts.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d.Set(i, j, lattice.Value(r.Intn(7)))
			}
		}
	}
	return d
}

var depQuickCfg = &quick.Config{
	MaxCount: 300,
	Values: func(args []reflect.Value, r *rand.Rand) {
		ts := ts4()
		for i := range args {
			args[i] = reflect.ValueOf(randDep(r, ts))
		}
	},
}

func TestNewTaskSet(t *testing.T) {
	ts, err := NewTaskSet([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 3 {
		t.Errorf("Len = %d", ts.Len())
	}
	if ts.Index("b") != 1 || ts.Name(1) != "b" {
		t.Error("index mapping wrong")
	}
	if ts.Index("zz") != -1 {
		t.Error("unknown task should map to -1")
	}
	if !ts.Has("a") || ts.Has("zz") {
		t.Error("Has wrong")
	}
}

func TestNewTaskSetErrors(t *testing.T) {
	if _, err := NewTaskSet(nil); err == nil {
		t.Error("empty set accepted")
	}
	if _, err := NewTaskSet([]string{"a", "a"}); err == nil {
		t.Error("duplicate accepted")
	}
	if _, err := NewTaskSet([]string{""}); err == nil {
		t.Error("empty name accepted")
	}
}

func TestTaskSetEqual(t *testing.T) {
	a := MustTaskSet("x", "y")
	b := MustTaskSet("x", "y")
	c := MustTaskSet("y", "x")
	if !a.Equal(b) || a.Equal(c) {
		t.Error("Equal wrong")
	}
	if a.Equal(MustTaskSet("x")) {
		t.Error("Equal ignores length")
	}
}

func TestTaskSetSortedNames(t *testing.T) {
	ts := MustTaskSet("z", "a", "m")
	got := ts.SortedNames()
	if got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Errorf("SortedNames = %v", got)
	}
	// Names preserves construction order.
	names := ts.Names()
	if names[0] != "z" {
		t.Errorf("Names = %v", names)
	}
}

func TestBottomTop(t *testing.T) {
	ts := ts4()
	bot, top := Bottom(ts), Top(ts)
	bot.Entries(func(i, j int, v lattice.Value) {
		if v != lattice.Par {
			t.Errorf("Bottom(%d,%d) = %v", i, j, v)
		}
	})
	top.Entries(func(i, j int, v lattice.Value) {
		if v != lattice.BiMaybe {
			t.Errorf("Top(%d,%d) = %v", i, j, v)
		}
	})
	for i := 0; i < 4; i++ {
		if top.At(i, i) != lattice.Par {
			t.Errorf("Top diagonal (%d,%d) = %v", i, i, top.At(i, i))
		}
	}
	if !bot.Leq(top) || top.Leq(bot) {
		t.Error("Bottom/Top order wrong")
	}
}

func TestSetDiagonalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on diagonal set")
		}
	}()
	Bottom(ts4()).Set(1, 1, lattice.Fwd)
}

func TestJoinAtReportsChange(t *testing.T) {
	d := Bottom(ts4())
	if !d.JoinAt(0, 1, lattice.Fwd) {
		t.Error("JoinAt should report change")
	}
	if d.JoinAt(0, 1, lattice.Fwd) {
		t.Error("idempotent JoinAt should report no change")
	}
	if d.At(0, 1) != lattice.Fwd {
		t.Errorf("At(0,1) = %v", d.At(0, 1))
	}
	if !d.JoinAt(0, 1, lattice.Bwd) {
		t.Error("JoinAt Bwd should change")
	}
	if d.At(0, 1) != lattice.Bi {
		t.Errorf("join(->,<-) = %v, want <->", d.At(0, 1))
	}
}

func TestGetMustGet(t *testing.T) {
	d := Bottom(ts4())
	d.Set(0, 3, lattice.Fwd)
	v, err := d.Get("t1", "t4")
	if err != nil || v != lattice.Fwd {
		t.Errorf("Get = %v, %v", v, err)
	}
	if _, err := d.Get("zz", "t1"); err == nil {
		t.Error("unknown task accepted")
	}
	if _, err := d.Get("t1", "zz"); err == nil {
		t.Error("unknown task accepted")
	}
	if d.MustGet("t1", "t4") != lattice.Fwd {
		t.Error("MustGet wrong")
	}
}

func TestCloneIndependent(t *testing.T) {
	d := Bottom(ts4())
	cp := d.Clone()
	cp.Set(0, 1, lattice.Fwd)
	if d.At(0, 1) != lattice.Par {
		t.Error("Clone shares storage")
	}
	if !d.TaskSet().Equal(cp.TaskSet()) {
		t.Error("Clone changed task set")
	}
}

func TestLeqPointwise(t *testing.T) {
	f := func(a, b *DepFunc) bool {
		j := a.Join(b)
		return a.Leq(j) && b.Leq(j)
	}
	if err := quick.Check(f, depQuickCfg); err != nil {
		t.Error(err)
	}
}

func TestJoinIsLUB(t *testing.T) {
	f := func(a, b, c *DepFunc) bool {
		j := a.Join(b)
		// If c is an upper bound of both, j <= c.
		if a.Leq(c) && b.Leq(c) && !j.Leq(c) {
			return false
		}
		return true
	}
	if err := quick.Check(f, depQuickCfg); err != nil {
		t.Error(err)
	}
}

func TestMeetIsGLB(t *testing.T) {
	f := func(a, b, c *DepFunc) bool {
		m := a.Meet(b)
		if !m.Leq(a) || !m.Leq(b) {
			return false
		}
		if c.Leq(a) && c.Leq(b) && !c.Leq(m) {
			return false
		}
		return true
	}
	if err := quick.Check(f, depQuickCfg); err != nil {
		t.Error(err)
	}
}

func TestWeightMonotonic(t *testing.T) {
	f := func(a, b *DepFunc) bool {
		j := a.Join(b)
		return j.Weight() >= a.Weight() && j.Weight() >= b.Weight()
	}
	if err := quick.Check(f, depQuickCfg); err != nil {
		t.Error(err)
	}
}

func TestWeightStrictlyMonotonicOnLt(t *testing.T) {
	f := func(a, b *DepFunc) bool {
		if a.Lt(b) {
			return a.Weight() < b.Weight()
		}
		return true
	}
	if err := quick.Check(f, depQuickCfg); err != nil {
		t.Error(err)
	}
}

func TestWeightExample(t *testing.T) {
	// Weight of the paper's dLUB table: entries per Definition 8.
	d := MustParseTable(`
      t1   t2   t3   t4
t1    ||   ->?  ->?  ->
t2    <-   ||   ||   ->
t3    <-   ||   ||   ->
t4    <-   <-?  <-?  ||
`)
	// distances: ->? = 4 (x2), -> = 1 (x3), <- = 1 (x3), <-? = 4 (x2)
	want := 4 + 4 + 1 + 1 + 1 + 1 + 1 + 1 + 4 + 4
	if got := d.Weight(); got != want {
		t.Errorf("Weight = %d, want %d", got, want)
	}
}

func TestKeyDistinguishes(t *testing.T) {
	a := Bottom(ts4())
	b := Bottom(ts4())
	if a.Key() != b.Key() {
		t.Error("identical funcs have different keys")
	}
	b.Set(2, 1, lattice.FwdMaybe)
	if a.Key() == b.Key() {
		t.Error("different funcs share key")
	}
}

func TestJoinAllEmpty(t *testing.T) {
	if JoinAll(nil) != nil {
		t.Error("JoinAll(nil) should be nil")
	}
}

func TestJoinAllFolds(t *testing.T) {
	ts := ts4()
	a := Bottom(ts)
	a.Set(0, 1, lattice.Fwd)
	b := Bottom(ts)
	b.Set(0, 1, lattice.Bwd)
	c := Bottom(ts)
	c.Set(2, 3, lattice.FwdMaybe)
	j := JoinAll([]*DepFunc{a, b, c})
	if j.At(0, 1) != lattice.Bi {
		t.Errorf("join at (0,1) = %v", j.At(0, 1))
	}
	if j.At(2, 3) != lattice.FwdMaybe {
		t.Errorf("join at (2,3) = %v", j.At(2, 3))
	}
	// operands unchanged
	if a.At(2, 3) != lattice.Par {
		t.Error("JoinAll mutated operand")
	}
}

func TestTableRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for k := 0; k < 20; k++ {
		d := randDep(r, ts4())
		back, err := ParseTable(d.Table())
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(d) {
			t.Fatalf("table round trip mismatch:\n%s\nvs\n%s", d.Table(), back.Table())
		}
	}
}

func TestParseTableErrors(t *testing.T) {
	cases := []string{
		"",
		"t1 t2\nt1 || ->\n",              // missing row
		"t1 t1\nt1 || ->\nt1 <- ||\n",    // duplicate task
		"t1 t2\nt1 || ->\nzz <- ||\n",    // unknown row task
		"t1 t2\nt1 || -> ->\nt2 <- ||\n", // arity
		"t1 t2\nt1 || xx\nt2 <- ||\n",    // bad value
		"t1 t2\nt1 -> ->\nt2 <- ||\n",    // non-|| diagonal
	}
	for i, in := range cases {
		if _, err := ParseTable(in); err == nil {
			t.Errorf("case %d: ParseTable accepted %q", i, in)
		}
	}
}

func TestRelaxViolations(t *testing.T) {
	d := MustParseTable(`
      t1   t2   t3
t1    ||   ->   <->
t2    <-   ||   ||
t3    <-   ||   ||
`)
	// t1 executed, t2 did not, t3 did.
	executed := []bool{true, false, true}
	n := d.RelaxViolations(func(i int) bool { return executed[i] })
	if n != 1 {
		t.Fatalf("relaxed %d entries, want 1", n)
	}
	if d.MustGet("t1", "t2") != lattice.FwdMaybe {
		t.Errorf("d(t1,t2) = %v, want ->?", d.MustGet("t1", "t2"))
	}
	if d.MustGet("t1", "t3") != lattice.Bi {
		t.Errorf("d(t1,t3) = %v, want <-> (both executed)", d.MustGet("t1", "t3"))
	}
	// t2 did not execute, so its <- at (t2,t1) is NOT relaxed.
	if d.MustGet("t2", "t1") != lattice.Bwd {
		t.Errorf("d(t2,t1) = %v, want <-", d.MustGet("t2", "t1"))
	}
}

func TestRelaxViolationsIdempotentWhenAllExecuted(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	d := randDep(r, ts4())
	before := d.Clone()
	if n := d.RelaxViolations(func(int) bool { return true }); n != 0 {
		t.Errorf("relaxed %d entries with all tasks executed", n)
	}
	if !d.Equal(before) {
		t.Error("RelaxViolations changed entries with all executed")
	}
}

func TestDOTOutput(t *testing.T) {
	d := MustParseTable(`
      t1   t2
t1    ||   ->
t2    <-   ||
`)
	out := d.DOT("g")
	for _, want := range []string{"digraph", `"t1" -> "t2"`, "solid"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// <- entries alone must not create edges.
	if strings.Contains(out, `"t2" -> "t1"`) {
		t.Errorf("DOT rendered backward edge:\n%s", out)
	}
}

func TestDOTAsymmetricLabel(t *testing.T) {
	d := MustParseTable(`
      t1   t2
t1    ||   ->?
t2    <-   ||
`)
	out := d.DOT("g")
	if !strings.Contains(out, "dashed") {
		t.Errorf("conditional edge not dashed:\n%s", out)
	}
	// (→?, ←) is not a mirror pair, so the label shows both.
	if !strings.Contains(out, "->? / <-") {
		t.Errorf("asymmetric pair not labelled:\n%s", out)
	}
}
