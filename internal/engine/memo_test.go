package engine

import (
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
)

// TestShapeMemo covers the memo's own contract: a stored shape is
// found again, a shape that differs in the executed set, a pair, the
// message split or the message order is not, a hash hit on another
// shape's slot is refused by the word comparison, reset empties the
// memo and insertion stops at the cap.
func TestShapeMemo(t *testing.T) {
	exec := []bool{true, false, true}
	shape := [][]depfunc.Pair{{{S: 0, R: 2}}, {{S: 0, R: 2}, {S: 2, R: 0}}}
	var m shapeMemo
	if m.lookup(exec, shape) {
		t.Fatal("empty memo reports a hit")
	}
	m.insert()
	if !m.lookup(exec, shape) {
		t.Fatal("stored shape not found")
	}
	for name, c := range map[string]struct {
		exec  []bool
		cands [][]depfunc.Pair
	}{
		"executed set":  {[]bool{true, true, true}, shape},
		"pair":          {exec, [][]depfunc.Pair{{{S: 0, R: 2}}, {{S: 0, R: 2}, {S: 2, R: 1}}}},
		"message split": {exec, [][]depfunc.Pair{{{S: 0, R: 2}, {S: 0, R: 2}}, {{S: 2, R: 0}}}},
		"message order": {exec, [][]depfunc.Pair{{{S: 0, R: 2}, {S: 2, R: 0}}, {{S: 0, R: 2}}}},
	} {
		if m.lookup(c.exec, c.cands) {
			t.Errorf("%s: a different shape hits", name)
		}
	}

	// Point the next shape's hash at the stored encoding: the word
	// comparison must refuse it, and insert must leave the slot alone.
	other := [][]depfunc.Pair{{{S: 2, R: 0}}}
	m.lookup(exec, other)
	m.at[m.hash] = 0
	if m.lookup(exec, other) {
		t.Error("hash collision taken for a hit")
	}
	m.insert()
	if !m.lookup(exec, shape) {
		t.Error("colliding insert displaced the stored shape")
	}

	m.reset()
	if m.lookup(exec, shape) || len(m.words) != 0 {
		t.Error("reset left the shape in place")
	}

	// Distinct one-message shapes until the cap stops insertion.
	var stored int
	for r := 0; ; r++ {
		cands := [][]depfunc.Pair{{{S: 0, R: r % 1000}, {S: 1, R: r / 1000}}}
		m.lookup(exec, cands)
		m.insert()
		if !m.lookup(exec, cands) {
			break
		}
		stored++
	}
	if len(m.words) > memoCapWords || len(m.words)+len(m.key)+1 <= memoCapWords {
		t.Errorf("memo stopped at %d words (%d shapes), cap %d", len(m.words), stored, memoCapWords)
	}
}
