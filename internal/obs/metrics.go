package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. Like every
// instrument, a nil *Counter is a valid no-op (see the package doc).
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// SetMax raises the gauge to v if v is larger (a running maximum,
// e.g. peak working-set size).
func (g *Gauge) SetMax(v int64) {
	for g != nil {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// FloatGauge is a gauge holding a float64 — burn rates, ratios and
// quantile estimates that do not fit the integer Gauge.
type FloatGauge struct {
	v atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *FloatGauge) Set(v float64) {
	if g != nil {
		g.v.Store(math.Float64bits(v))
	}
}

// Value returns the current value.
func (g *FloatGauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Exemplar links one observation of a histogram bucket to the trace
// that produced it, so a saturated latency bucket is one click away
// from the span tree of an offending request.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
	UnixNS  int64   `json:"unix_ns"`
}

// Histogram counts observations into fixed cumulative buckets
// (Prometheus-style: bucket i counts observations <= Bounds[i], with
// an implicit +Inf bucket equal to Count).
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Int64
	sum    atomic.Uint64              // float64 bits, CAS-updated
	ex     []atomic.Pointer[Exemplar] // len(bounds)+1, latest exemplar per bucket
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, new) {
			return
		}
	}
}

// ObserveExemplar records one observation and attaches traceID as the
// bucket's exemplar (latest wins). Unlike Observe it allocates; call
// it only for observations that actually carry a sampled trace.
func (h *Histogram) ObserveExemplar(v float64, traceID string, now time.Time) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.ex[i].Store(&Exemplar{Value: v, TraceID: traceID, UnixNS: now.UnixNano()})
	h.Observe(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Bounds returns the finite upper bucket bounds.
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	return append([]float64(nil), h.bounds...)
}

// metric pairs a named instrument with its help string for
// exposition. name is the full series identity (base plus rendered
// label set); base and labels split it for grouped exposition.
type metric struct {
	name, help string
	base       string // metric family name without labels
	labels     string // sorted `k="v",...` inner label text, "" when unlabeled
	counter    *Counter
	gauge      *Gauge
	fgauge     *FloatGauge
	hist       *Histogram
}

func (m *metric) typ() string {
	switch {
	case m.counter != nil:
		return "counter"
	case m.gauge != nil, m.fgauge != nil:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry is a dependency-free metrics registry: get-or-create
// instruments by name, exposed in the Prometheus text format, as
// JSON, or as a point-in-time Snapshot. All methods are safe for
// concurrent use; instrument updates are lock-free. On a nil
// *Registry the constructors return nil instruments and Unregister
// does nothing.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	hooks   []func()

	// runtimeHooked latches once RuntimeMetrics has installed its
	// scrape hook, making repeat calls no-ops.
	runtimeHooked atomic.Bool
}

// NewRegistry returns an empty Registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// Counter returns the counter with the given name, creating it on
// first use. It panics if the name is already registered as another
// type (a programming error, as in client_golang).
func (r *Registry) Counter(name, help string) *Counter {
	return r.LabeledCounter(name, help)
}

// Gauge returns the gauge with the given name, creating it on first
// use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.LabeledGauge(name, help)
}

// Histogram returns the histogram with the given name, creating it
// with the given bucket upper bounds (sorted ascending; the +Inf
// bucket is implicit) on first use. Later calls ignore the bucket
// argument.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.LabeledHistogram(name, help, buckets)
}

// LabeledCounter returns the counter of the series name{kv...},
// creating it on first use. kv lists alternating label keys and
// values; the label order is canonicalized, so the same set always
// names the same series. All series of one metric family must share
// one instrument type.
func (r *Registry) LabeledCounter(name, help string, kv ...string) *Counter {
	if r == nil {
		return nil
	}
	m := r.getOrCreate(name, help, kv, func() *metric { return &metric{counter: &Counter{}} })
	if m.counter == nil {
		panic(fmt.Sprintf("obs: %q already registered as a %s", m.name, m.typ()))
	}
	return m.counter
}

// LabeledGauge returns the gauge of the series name{kv...}, creating
// it on first use.
func (r *Registry) LabeledGauge(name, help string, kv ...string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.getOrCreate(name, help, kv, func() *metric { return &metric{gauge: &Gauge{}} })
	if m.gauge == nil {
		panic(fmt.Sprintf("obs: %q already registered as a %s", m.name, m.typ()))
	}
	return m.gauge
}

// LabeledHistogram returns the histogram of the series name{kv...},
// creating it with the given bucket bounds on first use.
func (r *Registry) LabeledHistogram(name, help string, buckets []float64, kv ...string) *Histogram {
	if r == nil {
		return nil
	}
	m := r.getOrCreate(name, help, kv, func() *metric {
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		return &metric{hist: &Histogram{
			bounds: bounds,
			counts: make([]atomic.Int64, len(bounds)+1),
			ex:     make([]atomic.Pointer[Exemplar], len(bounds)+1),
		}}
	})
	if m.hist == nil {
		panic(fmt.Sprintf("obs: %q already registered as a %s", m.name, m.typ()))
	}
	return m.hist
}

// FloatGauge returns the float-valued gauge with the given name,
// creating it on first use.
func (r *Registry) FloatGauge(name, help string) *FloatGauge {
	return r.LabeledFloatGauge(name, help)
}

// LabeledFloatGauge returns the float-valued gauge of the series
// name{kv...}, creating it on first use.
func (r *Registry) LabeledFloatGauge(name, help string, kv ...string) *FloatGauge {
	if r == nil {
		return nil
	}
	m := r.getOrCreate(name, help, kv, func() *metric { return &metric{fgauge: &FloatGauge{}} })
	if m.fgauge == nil {
		panic(fmt.Sprintf("obs: %q already registered as a %s", m.name, m.typ()))
	}
	return m.fgauge
}

// HistogramOpts names a histogram family and its bucket layout — the
// constructor form latency instruments use, where the fixed default
// layouts saturate (bbserved ingest latencies span µs to seconds).
type HistogramOpts struct {
	Name string
	Help string
	// Buckets lists the finite upper bounds, ascending. Nil selects
	// DefLatencyBuckets.
	Buckets []float64
}

// HistogramWith returns the histogram of the series opts.Name{kv...},
// creating it with opts.Buckets (default DefLatencyBuckets) on first
// use.
func (r *Registry) HistogramWith(opts HistogramOpts, kv ...string) *Histogram {
	buckets := opts.Buckets
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	return r.LabeledHistogram(opts.Name, opts.Help, buckets, kv...)
}

// DefLatencyBuckets spans 1µs to ~10s at roughly half-decade
// resolution — wide enough for both a sub-millisecond period learn
// and a multi-second backlog drain without saturating either end.
var DefLatencyBuckets = []float64{
	0.000001, 0.0000025, 0.000005, 0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// getOrCreate looks up the series for (name, kv), creating it with
// mk on a miss. It panics on malformed label lists and on
// base-name/type conflicts detected at exposition grouping level.
func (r *Registry) getOrCreate(name, help string, kv []string, mk func() *metric) *metric {
	labels := renderLabels(kv)
	series := seriesName(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[series]; ok {
		return m
	}
	m := mk()
	m.name, m.help, m.base, m.labels = series, help, name, labels
	for _, o := range r.metrics {
		if o.base == name && o.typ() != m.typ() {
			panic(fmt.Sprintf("obs: family %q already registered as a %s", name, o.typ()))
		}
	}
	r.metrics[series] = m
	return m
}

// Unregister removes the series (a full SeriesName, including labels)
// from the registry, reporting whether it was present. Useful for
// per-stream series whose subject was deleted.
func (r *Registry) Unregister(series string) bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, ok := r.metrics[series]
	delete(r.metrics, series)
	return ok
}

// SeriesName renders the canonical full series name of a metric with
// the given alternating label keys and values — the key Snapshot and
// Unregister use.
func SeriesName(name string, kv ...string) string {
	return seriesName(name, renderLabels(kv))
}

func seriesName(base, labels string) string {
	if labels == "" {
		return base
	}
	return base + "{" + labels + "}"
}

// renderLabels canonicalizes alternating key/value pairs into the
// sorted inner label text `k1="v1",k2="v2"`. Values are escaped per
// the Prometheus text exposition rules.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", kv))
	}
	type pair struct{ k, v string }
	ps := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ps = append(ps, pair{kv[i], kv[i+1]})
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].k < ps[j].k })
	var sb strings.Builder
	for i, p := range ps {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(p.k)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(p.v))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeHelp escapes HELP text per the exposition format: backslash
// and newline only (double quotes are legal in help text).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var sb strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			sb.WriteString(`\\`)
		case '"':
			sb.WriteString(`\"`)
		case '\n':
			sb.WriteString(`\n`)
		default:
			sb.WriteRune(c)
		}
	}
	return sb.String()
}

// AddScrapeHook registers a function run at the start of every
// Snapshot/WritePrometheus/WriteJSON, for metrics that are sampled
// rather than event-driven (see RuntimeMetrics).
func (r *Registry) AddScrapeHook(f func()) {
	r.mu.Lock()
	r.hooks = append(r.hooks, f)
	r.mu.Unlock()
}

func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	hooks := make([]func(), len(r.hooks))
	copy(hooks, r.hooks)
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		out = append(out, m)
	}
	// Sort by (family, labels) so every series of one family is
	// contiguous: the exposition format wants one HELP/TYPE header per
	// family, and "foo2" must not split the "foo"/"foo{...}" group.
	sort.Slice(out, func(i, j int) bool {
		if out[i].base != out[j].base {
			return out[i].base < out[j].base
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// WritePrometheus emits every metric in the Prometheus text
// exposition format (version 0.0.4), suitable for a /metrics
// endpoint.
func (r *Registry) WritePrometheus(w io.Writer) error {
	prevBase := ""
	for _, m := range r.sorted() {
		if m.base != prevBase {
			prevBase = m.base
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.base, escapeHelp(m.help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.base, m.typ()); err != nil {
				return err
			}
		}
		var err error
		switch {
		case m.counter != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.counter.Value())
		case m.gauge != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", m.name, m.gauge.Value())
		case m.fgauge != nil:
			_, err = fmt.Fprintf(w, "%s %s\n", m.name, formatBound(m.fgauge.Value()))
		default:
			// Histogram suffixes attach to the family name; the le
			// label joins any series labels.
			withLE := func(le string) string {
				inner := `le="` + le + `"`
				if m.labels != "" {
					inner = m.labels + "," + inner
				}
				return m.base + "_bucket{" + inner + "}"
			}
			h := m.hist
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				if _, err = fmt.Fprintf(w, "%s %d\n", withLE(formatBound(b)), cum); err != nil {
					return err
				}
			}
			if _, err = fmt.Fprintf(w, "%s %d\n", withLE("+Inf"), h.Count()); err != nil {
				return err
			}
			if _, err = fmt.Fprintf(w, "%s %s\n",
				seriesName(m.base+"_sum", m.labels), formatBound(h.Sum())); err != nil {
				return err
			}
			_, err = fmt.Fprintf(w, "%s %d\n", seriesName(m.base+"_count", m.labels), h.Count())
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

// Handler returns an http.Handler serving WritePrometheus — the
// /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// Bucket is one cumulative histogram bucket of a Snapshot.
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
	// Exemplar is the bucket's latest trace exemplar, if any.
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Metric is the snapshot of one instrument.
type Metric struct {
	Type string `json:"type"`
	// Value is the counter or gauge value.
	Value int64 `json:"value,omitempty"`
	// Float is the value of a float-valued gauge.
	Float float64 `json:"float,omitempty"`
	// Histogram fields: total count, sum of observations, cumulative
	// finite buckets (the +Inf bucket equals Count).
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (0 < q <= 1) of a histogram
// Metric by linear interpolation within the winning bucket, the same
// estimate Prometheus's histogram_quantile produces. It returns 0 for
// an empty histogram and the highest finite bound when the quantile
// lands in the +Inf bucket.
func (m Metric) Quantile(q float64) float64 {
	if m.Type != "histogram" || m.Count == 0 || len(m.Buckets) == 0 {
		return 0
	}
	rank := q * float64(m.Count)
	for i, b := range m.Buckets {
		if float64(b.Count) >= rank {
			lower, lowerCount := 0.0, int64(0)
			if i > 0 {
				lower, lowerCount = m.Buckets[i-1].LE, m.Buckets[i-1].Count
			}
			width := b.LE - lower
			inBucket := b.Count - lowerCount
			if inBucket <= 0 {
				return b.LE
			}
			return lower + width*(rank-float64(lowerCount))/float64(inBucket)
		}
	}
	return m.Buckets[len(m.Buckets)-1].LE
}

// Snapshot is a point-in-time copy of a Registry, keyed by metric
// name. It is the form used by tests and by before/after diffs.
type Snapshot map[string]Metric

// Snapshot captures the current value of every metric.
func (r *Registry) Snapshot() Snapshot {
	out := Snapshot{}
	for _, m := range r.sorted() {
		switch {
		case m.counter != nil:
			out[m.name] = Metric{Type: "counter", Value: m.counter.Value()}
		case m.gauge != nil:
			out[m.name] = Metric{Type: "gauge", Value: m.gauge.Value()}
		case m.fgauge != nil:
			out[m.name] = Metric{Type: "gauge", Float: m.fgauge.Value()}
		default:
			h := m.hist
			bs := make([]Bucket, len(h.bounds))
			cum := int64(0)
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				bs[i] = Bucket{LE: b, Count: cum, Exemplar: h.ex[i].Load()}
			}
			out[m.name] = Metric{Type: "histogram", Count: h.Count(), Sum: h.Sum(), Buckets: bs}
		}
	}
	return out
}

// WriteJSON emits the Snapshot as one JSON object keyed by metric
// name.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Diff returns s minus prev: counters and histograms are subtracted
// (metrics absent from prev count from zero), gauges keep their
// current value. Useful for isolating one run's contribution on a
// shared registry.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{}
	for name, m := range s {
		p := prev[name]
		switch m.Type {
		case "counter":
			m.Value -= p.Value
		case "histogram":
			m.Count -= p.Count
			m.Sum -= p.Sum
			bs := append([]Bucket(nil), m.Buckets...)
			for i := range bs {
				if i < len(p.Buckets) && p.Buckets[i].LE == bs[i].LE {
					bs[i].Count -= p.Buckets[i].Count
				}
			}
			m.Buckets = bs
		}
		out[name] = m
	}
	return out
}

// Value returns the counter/gauge value of the named metric (zero if
// absent) — a test convenience.
func (s Snapshot) Value(name string) int64 { return s[name].Value }

// HistCount returns the observation count of the named histogram
// (zero if absent).
func (s Snapshot) HistCount(name string) int64 { return s[name].Count }
