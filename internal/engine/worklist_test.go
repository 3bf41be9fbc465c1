package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// sortedWorkList is the reference implementation of the bounded
// worklist: a slice kept sorted by ascending weight, inserting after
// every element of equal weight, merging the two front elements
// whenever the bound overflows and recording them in retired. The
// bucket queue must reproduce its merge sequence and output order
// exactly.
type sortedWorkList struct {
	bound   int
	items   []*hypothesis.Hypothesis
	retired []*hypothesis.Hypothesis
	stats   *Stats
	ctx     hypothesis.StepCtx
}

func (wl *sortedWorkList) add(h *hypothesis.Hypothesis) {
	wl.insert(h)
	for len(wl.items) > wl.bound {
		a, b := wl.items[0], wl.items[1]
		merged := a.Merge(b, wl.ctx)
		wl.items = wl.items[2:]
		wl.retired = append(wl.retired, a, b)
		wl.stats.Merges++
		wl.insert(merged)
	}
}

func (wl *sortedWorkList) insert(h *hypothesis.Hypothesis) {
	w := h.Weight()
	i := sort.Search(len(wl.items), func(k int) bool { return wl.items[k].Weight() > w })
	wl.items = append(wl.items, nil)
	copy(wl.items[i+1:], wl.items[i:])
	wl.items[i] = h
}

// randomHypothesis returns a hypothesis over ts with a few random
// low-lattice entries (at least one, so it is heavier than ⊥), so
// weights are small and collide often.
func randomHypothesis(rng *rand.Rand, ts *depfunc.TaskSet) *hypothesis.Hypothesis {
	vals := []lattice.Value{lattice.Fwd, lattice.Bwd, lattice.FwdMaybe, lattice.Bi}
	d := depfunc.Bottom(ts)
	n := ts.Len()
	for k := 1 + rng.Intn(3); k > 0; k-- {
		i, j := rng.Intn(n), rng.Intn(n-1)
		if j >= i {
			j++
		}
		d.JoinAt(i, j, vals[rng.Intn(len(vals))])
	}
	h := hypothesis.FromDepFunc(d)
	d.Release()
	return h
}

func stateKeys(hs []*hypothesis.Hypothesis) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = h.Key()
	}
	return out
}

// TestWorkListMatchesSortedReference drives the bucket queue and the
// sorted-slice reference side by side over random weights with many
// ties, several messages in a row on one reused bucket queue, and
// checks that both merge the same operand pairs in the same order and
// end in the same order. Every message also offers a child lighter than everything
// already queued, which must land in front.
func TestWorkListMatchesSortedReference(t *testing.T) {
	ts := depfunc.MustTaskSet("a", "b", "c", "d", "e")
	rng := rand.New(rand.NewSource(1))
	var bstats Stats
	bucket := &workList{stats: &bstats}
	for msg := 0; msg < 40; msg++ {
		bound := 1 + rng.Intn(12)
		bucket.bound = bound
		ctx := hypothesis.StepCtx{Period: 1, Msg: msg}
		var rstats Stats
		ref := &sortedWorkList{bound: bound, stats: &rstats, ctx: ctx}
		bstats.Merges = 0

		children := make([]*hypothesis.Hypothesis, 20+rng.Intn(60))
		for i := range children {
			children[i] = randomHypothesis(rng, ts)
		}
		// The lightest child arrives late, after heavier ones have
		// filled the queue.
		late := len(children) / 2
		children[late] = hypothesis.Bottom(ts)
		bucket.begin(minWeight(children), ctx)

		for i, c := range children {
			if i == late && len(ref.items) > 0 {
				for _, q := range ref.items {
					if q.Weight() <= c.Weight() {
						t.Fatalf("message %d: test setup: queued weight %d is not above the late child's %d",
							msg, q.Weight(), c.Weight())
					}
				}
			}
			ref.add(c)
			bucket.add(c)
		}
		got := bucket.take()
		if bstats.Merges == 0 && len(children) > bound {
			t.Fatalf("message %d: no merges at bound %d with %d children", msg, bound, len(children))
		}
		if bstats.Merges != rstats.Merges {
			t.Fatalf("message %d: merges %d, reference %d", msg, bstats.Merges, rstats.Merges)
		}
		if g, w := stateKeys(bucket.retired), stateKeys(ref.retired); !reflect.DeepEqual(g, w) {
			t.Fatalf("message %d: merge operand sequences differ:\n got %v\nwant %v", msg, g, w)
		}
		if g, w := stateKeys(got), stateKeys(ref.items); !reflect.DeepEqual(g, w) {
			t.Fatalf("message %d: output order differs:\n got %v\nwant %v", msg, g, w)
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].Weight() > got[i].Weight() {
				t.Fatalf("message %d: output not ascending at %d", msg, i)
			}
		}
		bucket.retired = bucket.retired[:0]
	}
}

// TestWorkListExactKeepsGatherOrder: without a bound the list is a
// plain collector and take hands the caller a slice the next message
// does not overwrite.
func TestWorkListExactKeepsGatherOrder(t *testing.T) {
	ts := depfunc.MustTaskSet("a", "b", "c")
	rng := rand.New(rand.NewSource(2))
	wl := &workList{stats: new(Stats)}
	in := make([]*hypothesis.Hypothesis, 10)
	for i := range in {
		in[i] = randomHypothesis(rng, ts)
		wl.add(in[i])
	}
	first := wl.take()
	wl.add(in[0])
	if !reflect.DeepEqual(first, in) {
		t.Fatal("exact mode reordered the gathered children")
	}
}
