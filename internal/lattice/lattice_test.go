package lattice

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func quickValue(r *rand.Rand) Value { return Value(r.Intn(int(numValues))) }

var quickCfg = &quick.Config{
	MaxCount: 2000,
	Values: func(args []reflect.Value, r *rand.Rand) {
		for i := range args {
			args[i] = reflect.ValueOf(quickValue(r))
		}
	},
}

func TestOrderReflexive(t *testing.T) {
	for _, v := range Values() {
		if !Leq(v, v) {
			t.Errorf("Leq(%v, %v) = false, want true", v, v)
		}
	}
}

func TestOrderAntisymmetric(t *testing.T) {
	for _, a := range Values() {
		for _, b := range Values() {
			if Leq(a, b) && Leq(b, a) && a != b {
				t.Errorf("order not antisymmetric at %v, %v", a, b)
			}
		}
	}
}

func TestOrderTransitive(t *testing.T) {
	for _, a := range Values() {
		for _, b := range Values() {
			for _, c := range Values() {
				if Leq(a, b) && Leq(b, c) && !Leq(a, c) {
					t.Errorf("order not transitive: %v <= %v <= %v but not %v <= %v", a, b, c, a, c)
				}
			}
		}
	}
}

func TestBottomAndTop(t *testing.T) {
	for _, v := range Values() {
		if !Leq(Bottom, v) {
			t.Errorf("Bottom not below %v", v)
		}
		if !Leq(v, Top) {
			t.Errorf("%v not below Top", v)
		}
	}
}

// TestHasseDiagram pins the exact order relation from Figure 3 of the
// paper: the listed pairs (and only those, plus reflexivity and
// transitive consequences) are ordered.
func TestHasseDiagram(t *testing.T) {
	wantLeq := map[[2]Value]bool{}
	for _, v := range Values() {
		wantLeq[[2]Value{v, v}] = true
		wantLeq[[2]Value{Par, v}] = true
		wantLeq[[2]Value{v, BiMaybe}] = true
	}
	wantLeq[[2]Value{Fwd, FwdMaybe}] = true
	wantLeq[[2]Value{Fwd, Bi}] = true
	wantLeq[[2]Value{Bwd, BwdMaybe}] = true
	wantLeq[[2]Value{Bwd, Bi}] = true
	for _, a := range Values() {
		for _, b := range Values() {
			if got, want := Leq(a, b), wantLeq[[2]Value{a, b}]; got != want {
				t.Errorf("Leq(%v, %v) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestJoinIsLeastUpperBound(t *testing.T) {
	for _, a := range Values() {
		for _, b := range Values() {
			j := Join(a, b)
			if !Leq(a, j) || !Leq(b, j) {
				t.Fatalf("Join(%v, %v) = %v is not an upper bound", a, b, j)
			}
			for _, c := range Values() {
				if Leq(a, c) && Leq(b, c) && !Leq(j, c) {
					t.Errorf("Join(%v, %v) = %v not least: %v is a smaller upper bound", a, b, j, c)
				}
			}
		}
	}
}

func TestMeetIsGreatestLowerBound(t *testing.T) {
	for _, a := range Values() {
		for _, b := range Values() {
			m := Meet(a, b)
			if !Leq(m, a) || !Leq(m, b) {
				t.Fatalf("Meet(%v, %v) = %v is not a lower bound", a, b, m)
			}
			for _, c := range Values() {
				if Leq(c, a) && Leq(c, b) && !Leq(c, m) {
					t.Errorf("Meet(%v, %v) = %v not greatest: %v is a larger lower bound", a, b, m, c)
				}
			}
		}
	}
}

func TestJoinCommutative(t *testing.T) {
	f := func(a, b Value) bool { return Join(a, b) == Join(b, a) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestJoinAssociative(t *testing.T) {
	f := func(a, b, c Value) bool { return Join(Join(a, b), c) == Join(a, Join(b, c)) }
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestJoinIdempotent(t *testing.T) {
	for _, v := range Values() {
		if Join(v, v) != v {
			t.Errorf("Join(%v, %v) = %v", v, v, Join(v, v))
		}
	}
}

func TestMeetCommutativeAssociative(t *testing.T) {
	f := func(a, b, c Value) bool {
		return Meet(a, b) == Meet(b, a) && Meet(Meet(a, b), c) == Meet(a, Meet(b, c))
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestAbsorptionLaws(t *testing.T) {
	f := func(a, b Value) bool {
		return Join(a, Meet(a, b)) == a && Meet(a, Join(a, b)) == a
	}
	if err := quick.Check(f, quickCfg); err != nil {
		t.Error(err)
	}
}

func TestOrderJoinConsistency(t *testing.T) {
	// a <= b  <=>  Join(a,b) == b  <=>  Meet(a,b) == a.
	for _, a := range Values() {
		for _, b := range Values() {
			if Leq(a, b) != (Join(a, b) == b) {
				t.Errorf("Leq/Join inconsistent at %v, %v", a, b)
			}
			if Leq(a, b) != (Meet(a, b) == a) {
				t.Errorf("Leq/Meet inconsistent at %v, %v", a, b)
			}
		}
	}
}

func TestSpecificJoins(t *testing.T) {
	cases := []struct{ a, b, want Value }{
		{Par, Fwd, Fwd},
		{Par, BiMaybe, BiMaybe},
		{Fwd, Bwd, Bi},
		{Fwd, FwdMaybe, FwdMaybe},
		{Fwd, BwdMaybe, BiMaybe},
		{Bwd, FwdMaybe, BiMaybe},
		{FwdMaybe, BwdMaybe, BiMaybe},
		{FwdMaybe, Bi, BiMaybe},
		{Bi, BwdMaybe, BiMaybe},
		{Bi, BiMaybe, BiMaybe},
		{Fwd, Bi, Bi},
		{Bwd, Bi, Bi},
	}
	for _, c := range cases {
		if got := Join(c.a, c.b); got != c.want {
			t.Errorf("Join(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSpecificMeets(t *testing.T) {
	cases := []struct{ a, b, want Value }{
		{Fwd, Bwd, Par},
		{FwdMaybe, BwdMaybe, Par},
		{FwdMaybe, Bi, Fwd},
		{BwdMaybe, Bi, Bwd},
		{BiMaybe, Bi, Bi},
		{FwdMaybe, BiMaybe, FwdMaybe},
	}
	for _, c := range cases {
		if got := Meet(c.a, c.b); got != c.want {
			t.Errorf("Meet(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDistanceTable(t *testing.T) {
	// Definition 7 of the paper.
	want := map[Value]int{
		Par: 0, Fwd: 1, Bwd: 1,
		FwdMaybe: 4, Bi: 4, BwdMaybe: 4,
		BiMaybe: 9,
	}
	for v, d := range want {
		if got := Distance(v); got != d {
			t.Errorf("Distance(%v) = %d, want %d", v, got, d)
		}
	}
}

func TestDistanceMonotonic(t *testing.T) {
	for _, a := range Values() {
		for _, b := range Values() {
			if Lt(a, b) && Distance(a) >= Distance(b) {
				t.Errorf("Distance not strictly monotonic: %v < %v but %d >= %d",
					a, b, Distance(a), Distance(b))
			}
		}
	}
}

func TestLevelMatchesDistance(t *testing.T) {
	// Distance is the square of the lattice level.
	for _, v := range Values() {
		if l := Level(v); l*l != Distance(v) {
			t.Errorf("Level(%v)^2 = %d, Distance = %d", v, l*l, Distance(v))
		}
	}
}

func TestReverseInvolution(t *testing.T) {
	for _, v := range Values() {
		if Reverse(Reverse(v)) != v {
			t.Errorf("Reverse not an involution at %v", v)
		}
	}
}

func TestReverseIsOrderAutomorphism(t *testing.T) {
	for _, a := range Values() {
		for _, b := range Values() {
			if Leq(a, b) != Leq(Reverse(a), Reverse(b)) {
				t.Errorf("Reverse does not preserve order at %v, %v", a, b)
			}
			if Reverse(Join(a, b)) != Join(Reverse(a), Reverse(b)) {
				t.Errorf("Reverse does not commute with Join at %v, %v", a, b)
			}
		}
	}
}

func TestReversePairs(t *testing.T) {
	cases := map[Value]Value{
		Par: Par, Fwd: Bwd, Bwd: Fwd, Bi: Bi,
		FwdMaybe: BwdMaybe, BwdMaybe: FwdMaybe, BiMaybe: BiMaybe,
	}
	for v, want := range cases {
		if got := Reverse(v); got != want {
			t.Errorf("Reverse(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestRelax(t *testing.T) {
	cases := map[Value]Value{
		Par: Par, Fwd: FwdMaybe, Bwd: BwdMaybe, Bi: BiMaybe,
		FwdMaybe: FwdMaybe, BwdMaybe: BwdMaybe, BiMaybe: BiMaybe,
	}
	for v, want := range cases {
		if got := Relax(v); got != want {
			t.Errorf("Relax(%v) = %v, want %v", v, got, want)
		}
	}
}

func TestRelaxIsMinimalConstraintRemoval(t *testing.T) {
	// Relax(v) is the least value above v without an execution
	// constraint.
	for _, v := range Values() {
		r := Relax(v)
		if HasExecConstraint(r) {
			t.Errorf("Relax(%v) = %v still has an execution constraint", v, r)
		}
		if !Leq(v, r) {
			t.Errorf("Relax(%v) = %v is not above v", v, r)
		}
		for _, c := range Values() {
			if Leq(v, c) && !HasExecConstraint(c) && !Leq(r, c) {
				t.Errorf("Relax(%v) = %v is not minimal; %v is smaller", v, r, c)
			}
		}
	}
}

func TestHasExecConstraint(t *testing.T) {
	want := map[Value]bool{
		Par: false, Fwd: true, Bwd: true, Bi: true,
		FwdMaybe: false, BwdMaybe: false, BiMaybe: false,
	}
	for v, w := range want {
		if got := HasExecConstraint(v); got != w {
			t.Errorf("HasExecConstraint(%v) = %v, want %v", v, got, w)
		}
	}
}

func TestAllowsMessage(t *testing.T) {
	wantOut := map[Value]bool{
		Par: false, Fwd: true, Bwd: false, Bi: true,
		FwdMaybe: true, BwdMaybe: false, BiMaybe: true,
	}
	for v, w := range wantOut {
		if got := AllowsOutgoingMessage(v); got != w {
			t.Errorf("AllowsOutgoingMessage(%v) = %v, want %v", v, got, w)
		}
		if got := AllowsIncomingMessage(Reverse(v)); got != w {
			t.Errorf("AllowsIncomingMessage(Reverse(%v)) = %v, want %v", v, got, w)
		}
	}
}

func TestStringParseRoundTrip(t *testing.T) {
	for _, v := range Values() {
		got, err := ParseValue(v.String())
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", v.String(), err)
		}
		if got != v {
			t.Errorf("round trip %v -> %q -> %v", v, v.String(), got)
		}
		got, err = ParseValue(v.Pretty())
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", v.Pretty(), err)
		}
		if got != v {
			t.Errorf("pretty round trip %v -> %q -> %v", v, v.Pretty(), got)
		}
	}
}

func TestParseValueError(t *testing.T) {
	for _, bad := range []string{"", "-->", "=>", "? ", "par?"} {
		if _, err := ParseValue(bad); err == nil {
			t.Errorf("ParseValue(%q) succeeded, want error", bad)
		}
	}
}

func TestInvalidValueString(t *testing.T) {
	v := Value(42)
	if Valid(v) {
		t.Fatal("Value(42) reported valid")
	}
	if got := v.String(); got != "Value(42)" {
		t.Errorf("String() = %q", got)
	}
	if got := v.Pretty(); got != "Value(42)" {
		t.Errorf("Pretty() = %q", got)
	}
}

func TestValuesComplete(t *testing.T) {
	vs := Values()
	if len(vs) != int(numValues) {
		t.Fatalf("Values() returned %d values, want %d", len(vs), numValues)
	}
	seen := map[Value]bool{}
	for _, v := range vs {
		if seen[v] {
			t.Errorf("duplicate value %v", v)
		}
		seen[v] = true
	}
}

func TestDistancePanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Distance(invalid) did not panic")
		}
	}()
	Distance(Value(99))
}
