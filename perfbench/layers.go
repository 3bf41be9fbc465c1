package main

import "github.com/blackbox-rt/modelgen/internal/engine"

// endToEnd lists the metrics of an untraced run, with their units.
var endToEnd = map[string]string{
	"periods_per_s": "periods/s",
	"ack_p50_ms":    "ms",
	"ack_p95_ms":    "ms",
	"setup_s":       "s",
	"peak_rss_mb":   "MiB",
}

// perLayer lists the metrics of a traced run, with their units. Times
// and counts are per learned period. Every workload reports every
// metric; one a workload does not exercise reads 0 (for example the
// cluster.* spans on serve-wal). See README.md for what each measures
// and which end-to-end metric it should move.
var perLayer = map[string]string{
	"trace.parse_s":              "s/period",
	"trace.lines":                "count/period",
	"trace.periods_cut":          "count/period",
	"engine.candidates_s":        "s/period",
	"engine.candidate_pairs":     "count/period",
	"engine.generalize_s":        "s/period",
	"engine.children":            "count/period",
	"engine.merges":              "count/period",
	"engine.merge_ratio":         "ratio",
	"engine.postprocess_s":       "s/period",
	"engine.relaxations":         "count/period",
	"engine.pruned":              "count/period",
	"engine.peak_live":           "count",
	"learner.add_period_s":       "s/period",
	"learner.period_delta_s":     "s/period",
	"learner.delta_bytes":        "B/period",
	"learner.result_s":           "s/period",
	"store.append_s":             "s/period",
	"store.append_bytes":         "B/period",
	"store.records":              "count/period",
	"store.compact_s":            "s/period",
	"store.compactions":          "count/period",
	"serve.post_events_s":        "s/period",
	"serve.get_model_s":          "s/period",
	"serve.shed":                 "count/period",
	"serve.self_s":               "s/period",
	"cluster.gateway_s":          "s/period",
	"cluster.node_s":             "s/period",
	"cluster.gateway_self_s":     "s/period",
	"go.gc_cycles":               "1/period",
	"go.alloc_bytes_per_period":  "B/period",
	"bench.traced_periods_per_s": "periods/s",
	"bench.tracing_overhead":     "ratio",
}

// layerMetrics collects a traced run's metrics, every one present.
type layerMetrics struct{ m map[string]metric }

func newLayerMetrics() *layerMetrics {
	l := &layerMetrics{m: make(map[string]metric, len(perLayer))}
	for name, unit := range perLayer {
		l.m[name] = metric{0, unit}
	}
	return l
}

func (l *layerMetrics) set(name string, v float64) {
	unit, ok := perLayer[name]
	if !ok {
		panic("perfbench: undeclared per-layer metric " + name)
	}
	l.m[name] = metric{v, unit}
}

// endToEndMetrics assembles an untraced run's metrics.
func endToEndMetrics(periodsPerS float64, acks, setups []float64) (map[string]metric, error) {
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	v := map[string]float64{
		"periods_per_s": periodsPerS,
		"ack_p50_ms":    quantile(acks, 0.5),
		"ack_p95_ms":    quantile(acks, 0.95),
		"setup_s":       quantile(setups, 0.5),
		"peak_rss_mb":   rss,
	}
	m := make(map[string]metric, len(v))
	for name, x := range v {
		m[name] = metric{x, endToEnd[name]}
	}
	return m, nil
}

// engineCounts sets the engine counters from a stats sum over periods.
func (l *layerMetrics) engineCounts(st engine.Stats, periods int) {
	p := float64(max(periods, 1))
	l.set("engine.candidate_pairs", float64(st.Candidates)/p)
	l.set("engine.children", float64(st.Children)/p)
	l.set("engine.merges", float64(st.Merges)/p)
	l.set("engine.relaxations", float64(st.Relaxations)/p)
	l.set("engine.peak_live", float64(st.Peak))
	if st.Children > 0 {
		l.set("engine.merge_ratio", float64(st.Merges)/float64(st.Children))
	}
}
