package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("c_total", "") != c {
		t.Error("Counter is not get-or-create")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	g.SetMax(3) // below current: no effect
	if got := g.Value(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}
	g.SetMax(11)
	if got := g.Value(); got != 11 {
		t.Errorf("gauge after SetMax = %d, want 11", got)
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	defer func() {
		if recover() == nil {
			t.Error("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 8} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 16 {
		t.Errorf("sum = %g, want 16", h.Sum())
	}
	snap := r.Snapshot()
	m := snap["h"]
	// Cumulative: <=1 → 2, <=2 → 4, <=4 → 5 (the 8 lands in +Inf).
	want := []Bucket{{LE: 1, Count: 2}, {LE: 2, Count: 4}, {LE: 4, Count: 5}}
	if len(m.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", m.Buckets, want)
	}
	for i := range want {
		if m.Buckets[i] != want[i] {
			t.Errorf("bucket %d = %+v, want %+v", i, m.Buckets[i], want[i])
		}
	}
}

func TestPrometheusText(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "help text").Add(3)
	r.Gauge("m_gauge", "").Set(-2)
	r.Histogram("m_hist", "", []float64{1, 2}).Observe(1.5)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP m_total help text",
		"# TYPE m_total counter",
		"m_total 3",
		"# TYPE m_gauge gauge",
		"m_gauge -2",
		"# TYPE m_hist histogram",
		`m_hist_bucket{le="1"} 0`,
		`m_hist_bucket{le="2"} 1`,
		`m_hist_bucket{le="+Inf"} 1`,
		"m_hist_sum 1.5",
		"m_hist_count 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.Histogram("b", "", []float64{10}).Observe(4)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("WriteJSON output is not parseable: %v", err)
	}
	if back.Value("a_total") != 2 || back.HistCount("b") != 1 {
		t.Errorf("round trip lost values: %+v", back)
	}
}

func TestSnapshotDiff(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", []float64{1})
	c.Add(5)
	g.Set(10)
	h.Observe(0.5)
	before := r.Snapshot()
	c.Add(3)
	g.Set(4)
	h.Observe(2)
	diff := r.Snapshot().Diff(before)
	if diff.Value("c_total") != 3 {
		t.Errorf("counter diff = %d, want 3", diff.Value("c_total"))
	}
	if diff.Value("g") != 4 {
		t.Errorf("gauge in diff = %d, want current value 4", diff.Value("g"))
	}
	if diff.HistCount("h") != 1 || diff["h"].Sum != 2 {
		t.Errorf("histogram diff = %+v, want count 1 sum 2", diff["h"])
	}
	if diff["h"].Buckets[0].Count != 0 {
		t.Errorf("bucket diff = %d, want 0 (second observation exceeded the bound)", diff["h"].Buckets[0].Count)
	}
}

func TestScrapeHookAndRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RuntimeMetrics(r)
	snap := r.Snapshot()
	if snap.Value("go_goroutines") < 1 {
		t.Errorf("go_goroutines = %d, want >= 1", snap.Value("go_goroutines"))
	}
	if snap.Value("go_heap_alloc_bytes") <= 0 {
		t.Errorf("go_heap_alloc_bytes = %d, want > 0", snap.Value("go_heap_alloc_bytes"))
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{50})
	g := r.Gauge("g", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(1)
				g.SetMax(int64(i))
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 || h.Sum() != 8000 {
		t.Errorf("histogram count=%d sum=%g, want 8000/8000", h.Count(), h.Sum())
	}
	if g.Value() != 999 {
		t.Errorf("gauge = %d, want 999", g.Value())
	}
}

// TestNilInstrumentsNoop pins the nil-instrument rule (package doc):
// a nil Registry hands out nil instruments, and every update and read
// on them is a no-op that allocates nothing, so callers need no guard.
func TestNilInstrumentsNoop(t *testing.T) {
	var r *Registry
	c := r.LabeledCounter("c_total", "", "k", "v")
	g := r.Gauge("g", "")
	fg := r.FloatGauge("f", "")
	h := r.HistogramWith(HistogramOpts{Name: "h"})
	if c != nil || g != nil || fg != nil || h != nil || r.Unregister("g") {
		t.Fatal("nil registry built an instrument")
	}
	RuntimeMetrics(r)
	now := time.Now()
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(2)
		g.SetMax(5)
		fg.Set(0.5)
		h.Observe(1)
		h.ObserveExemplar(1, "trace", now)
	})
	if allocs != 0 {
		t.Fatalf("nil instruments allocated %.1f/op, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || fg.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Bounds() != nil {
		t.Fatal("nil instrument reads a nonzero value")
	}
}
