// Package lattice implements the seven-value dependency lattice V of
// Feng et al., "Automatic Model Generation for Black Box Real-Time
// Systems" (DATE 2007), Figure 3.
//
// The values describe the relation between an ordered pair of tasks
// (t1, t2) within one execution period of a periodic real-time system:
//
//	‖    (Par)      t1 always executes in parallel with t2 — no
//	                observed dependency in either direction.
//	→    (Fwd)      if t1 executes in a period it always determines
//	                the execution of t2.
//	←    (Bwd)      if t1 executes in a period it always depends on
//	                the execution of t2.
//	↔    (Bi)       t1 and t2 depend on/determine each other.
//	→?   (FwdMaybe) t1 may or may not determine t2.
//	←?   (BwdMaybe) t1 may or may not depend on t2.
//	↔?   (BiMaybe)  t1 and t2 may or may not depend on/determine
//	                each other (top of the lattice).
//
// The partial order is "more specific than": v1 ⊑ v2 means v1 makes a
// stronger claim than v2. Par is the bottom (most specific), BiMaybe
// the top (least specific). The Hasse diagram is
//
//	    ↔?
//	  / |  \
//	→?  ↔  ←?
//	|  / \  |
//	→ ·   · ←
//	 \     /
//	  \   /
//	    ‖
//
// with covers ‖⋖→, ‖⋖←, →⋖→?, →⋖↔, ←⋖←?, ←⋖↔, →?⋖↔?, ↔⋖↔?, ←?⋖↔?.
// Every pair of values has a unique least upper bound (Join) and a
// unique greatest lower bound (Meet); this is verified at package
// initialization.
package lattice

import "fmt"

// Value is one of the seven dependency values of the lattice V.
type Value uint8

// The seven dependency values, ordered by lattice level and then by
// direction. The zero value is Par, the lattice bottom, so that
// zero-initialized dependency matrices start maximally specific.
const (
	Par      Value = iota // ‖  : no dependency observed
	Fwd                   // →  : determines
	Bwd                   // ←  : depends on
	Bi                    // ↔  : mutual (defined for completeness)
	FwdMaybe              // →? : may determine
	BwdMaybe              // ←? : may depend on
	BiMaybe               // ↔? : may mutually depend (top)

	numValues = 7
)

// Bottom and Top are the lattice extrema.
const (
	Bottom = Par
	Top    = BiMaybe
)

// covers lists the covering relation of the Hasse diagram: covers[i]
// holds the values that immediately cover value i.
var covers = [numValues][]Value{
	Par:      {Fwd, Bwd},
	Fwd:      {FwdMaybe, Bi},
	Bwd:      {BwdMaybe, Bi},
	Bi:       {BiMaybe},
	FwdMaybe: {BiMaybe},
	BwdMaybe: {BiMaybe},
	BiMaybe:  {},
}

var (
	leqTable  [numValues][numValues]bool
	joinTable [numValues][numValues]Value
	meetTable [numValues][numValues]Value
)

func init() {
	// Reflexive-transitive closure of the covering relation.
	for v := Value(0); v < numValues; v++ {
		leqTable[v][v] = true
	}
	for changed := true; changed; {
		changed = false
		for a := Value(0); a < numValues; a++ {
			for b := Value(0); b < numValues; b++ {
				if !leqTable[a][b] {
					continue
				}
				for _, c := range covers[b] {
					if !leqTable[a][c] {
						leqTable[a][c] = true
						changed = true
					}
				}
			}
		}
	}
	// Joins and meets by brute force, verifying uniqueness so that a
	// mistake in the covering relation cannot silently produce a
	// non-lattice order.
	for a := Value(0); a < numValues; a++ {
		for b := Value(0); b < numValues; b++ {
			joinTable[a][b] = leastUpper(a, b)
			meetTable[a][b] = greatestLower(a, b)
		}
	}
}

func leastUpper(a, b Value) Value {
	var ubs []Value
	for c := Value(0); c < numValues; c++ {
		if leqTable[a][c] && leqTable[b][c] {
			ubs = append(ubs, c)
		}
	}
	least := findExtremum(ubs, func(x, y Value) bool { return leqTable[x][y] })
	if least == nil {
		panic(fmt.Sprintf("lattice: no unique least upper bound for %v, %v", a, b))
	}
	return *least
}

func greatestLower(a, b Value) Value {
	var lbs []Value
	for c := Value(0); c < numValues; c++ {
		if leqTable[c][a] && leqTable[c][b] {
			lbs = append(lbs, c)
		}
	}
	greatest := findExtremum(lbs, func(x, y Value) bool { return leqTable[y][x] })
	if greatest == nil {
		panic(fmt.Sprintf("lattice: no unique greatest lower bound for %v, %v", a, b))
	}
	return *greatest
}

// findExtremum returns the unique element e of set with before(e, x)
// for every x in set, or nil if no such element exists.
func findExtremum(set []Value, before func(x, y Value) bool) *Value {
	for _, cand := range set {
		ok := true
		for _, other := range set {
			if !before(cand, other) {
				ok = false
				break
			}
		}
		if ok {
			return &cand
		}
	}
	return nil
}

// Leq reports whether a is more specific than or equal to b (a ⊑ b).
func Leq(a, b Value) bool { return leqTable[a][b] }

// Lt reports whether a is strictly more specific than b.
func Lt(a, b Value) bool { return a != b && leqTable[a][b] }

// Join returns the least upper bound a ⊔ b.
func Join(a, b Value) Value { return joinTable[a][b] }

// Meet returns the greatest lower bound a ⊓ b.
func Meet(a, b Value) Value { return meetTable[a][b] }

// Reverse returns the value describing the same relation viewed from
// the opposite side of the task pair: Reverse(d(t1,t2)) is the value a
// fresh observation of the same message would install at (t2,t1).
func Reverse(v Value) Value {
	switch v {
	case Fwd:
		return Bwd
	case Bwd:
		return Fwd
	case FwdMaybe:
		return BwdMaybe
	case BwdMaybe:
		return FwdMaybe
	default: // Par, Bi, BiMaybe are symmetric
		return v
	}
}

// Distance is the weight function of Definition 7: the square distance
// from v to the lattice bottom ‖. It is 0 for ‖, 1 for → and ←, 4 for
// →?, ↔ and ←?, and 9 for ↔?.
func Distance(v Value) int {
	switch v {
	case Par:
		return 0
	case Fwd, Bwd:
		return 1
	case FwdMaybe, Bi, BwdMaybe:
		return 4
	case BiMaybe:
		return 9
	default:
		panic(fmt.Sprintf("lattice: invalid value %d", uint8(v)))
	}
}

// Level returns the height of v in the lattice: 0 for ‖, 1 for → and
// ←, 2 for →?, ↔ and ←?, and 3 for ↔?.
func Level(v Value) int {
	switch v {
	case Par:
		return 0
	case Fwd, Bwd:
		return 1
	case FwdMaybe, Bi, BwdMaybe:
		return 2
	case BiMaybe:
		return 3
	default:
		panic(fmt.Sprintf("lattice: invalid value %d", uint8(v)))
	}
}

// HasExecConstraint reports whether v constrains task execution within
// a period: the unconditional values →, ← and ↔ all require that
// whenever the first task of the pair executes, the second executes
// too. The conditional values →?, ←?, ↔? and the bottom ‖ impose no
// execution constraint.
func HasExecConstraint(v Value) bool { return v == Fwd || v == Bwd || v == Bi }

// Relax returns the minimal generalization of v that removes its
// execution constraint: → becomes →?, ← becomes ←?, ↔ becomes ↔?.
// Values without an execution constraint are returned unchanged.
func Relax(v Value) Value {
	switch v {
	case Fwd:
		return FwdMaybe
	case Bwd:
		return BwdMaybe
	case Bi:
		return BiMaybe
	default:
		return v
	}
}

// AllowsOutgoingMessage reports whether a hypothesis holding value v at
// (s, r) is consistent with a message sent from s to r in some period,
// i.e. whether → ⊑ v.
func AllowsOutgoingMessage(v Value) bool { return leqTable[Fwd][v] }

// AllowsIncomingMessage reports whether a hypothesis holding value v at
// (r, s) is consistent with a message received by r from s, i.e.
// whether ← ⊑ v.
func AllowsIncomingMessage(v Value) bool { return leqTable[Bwd][v] }

// Valid reports whether v is one of the seven lattice values.
func Valid(v Value) bool { return v < numValues }

// Values returns all seven lattice values in ascending constant order.
func Values() []Value {
	return []Value{Par, Fwd, Bwd, Bi, FwdMaybe, BwdMaybe, BiMaybe}
}

var valueNames = [numValues]string{
	Par:      "||",
	Fwd:      "->",
	Bwd:      "<-",
	Bi:       "<->",
	FwdMaybe: "->?",
	BwdMaybe: "<-?",
	BiMaybe:  "<->?",
}

// String returns the ASCII rendering of v: "||", "->", "<-", "<->",
// "->?", "<-?" or "<->?".
func (v Value) String() string {
	if !Valid(v) {
		return fmt.Sprintf("Value(%d)", uint8(v))
	}
	return valueNames[v]
}

// Pretty returns the Unicode rendering used in the paper: ‖, →, ←, ↔,
// →?, ←?, ↔?.
func (v Value) Pretty() string {
	switch v {
	case Par:
		return "‖"
	case Fwd:
		return "→"
	case Bwd:
		return "←"
	case Bi:
		return "↔"
	case FwdMaybe:
		return "→?"
	case BwdMaybe:
		return "←?"
	case BiMaybe:
		return "↔?"
	default:
		return fmt.Sprintf("Value(%d)", uint8(v))
	}
}

// ParseValue converts the ASCII or Unicode rendering of a dependency
// value back into a Value.
func ParseValue(s string) (Value, error) {
	switch s {
	case "||", "‖", "par":
		return Par, nil
	case "->", "→":
		return Fwd, nil
	case "<-", "←":
		return Bwd, nil
	case "<->", "↔":
		return Bi, nil
	case "->?", "→?":
		return FwdMaybe, nil
	case "<-?", "←?":
		return BwdMaybe, nil
	case "<->?", "↔?":
		return BiMaybe, nil
	default:
		return Par, fmt.Errorf("lattice: unknown dependency value %q", s)
	}
}
