package learner

import (
	"sort"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/depfunc"
)

// exactLiteSession learns the whole lite case-study trace exactly: a
// working set of a few hundred hypotheses, many of equal weight.
func exactLiteSession(tb testing.TB) *Online {
	tr := casestudy.MustLiteTrace()
	o, err := NewOnline(tr.Tasks, Options{Policy: casestudy.LitePolicy()})
	if err != nil {
		tb.Fatal(err)
	}
	for _, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			tb.Fatal(err)
		}
	}
	return o
}

// TestResultOrderIsKeyOrder pins the result order to ascending weight
// with ties broken by the Key string, the order the tie-break compared
// before it read the packed words directly.
func TestResultOrderIsKeyOrder(t *testing.T) {
	res, err := exactLiteSession(t).Result()
	if err != nil {
		t.Fatal(err)
	}
	want := append([]*depfunc.DepFunc(nil), res.Hypotheses...)
	sort.SliceStable(want, func(a, b int) bool {
		if wa, wb := want[a].Weight(), want[b].Weight(); wa != wb {
			return wa < wb
		}
		return want[a].Key() < want[b].Key()
	})
	ties := 0
	for i, d := range res.Hypotheses {
		if d != want[i] {
			t.Fatalf("hypothesis %d out of Key order", i)
		}
		if i > 0 && d.Weight() == res.Hypotheses[i-1].Weight() {
			ties++
		}
	}
	if ties == 0 {
		t.Fatalf("no equal-weight neighbours among %d hypotheses: the tie-break went unexercised", len(res.Hypotheses))
	}
}

// BenchmarkResultExactLite times one Online.Result on the exact lite
// working set: the clone, the weight/Key-order sort and the LUB.
func BenchmarkResultExactLite(b *testing.B) {
	o := exactLiteSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := o.Result(); err != nil {
			b.Fatal(err)
		}
	}
}
