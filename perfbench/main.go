// Command perfbench is the repository benchmark: it drives the batch
// learner and the served path end to end and, in a separate traced
// run, splits the time over the layers (trace, engine, learner, store,
// serve, cluster).
//
//	bash perfbench/run.sh --workload learn-b150 --seed 1 --seconds 20 --trace 0
//
// Inputs are simulated from the seed outside every timed region; the
// code under test only sees rendered trace text. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, with --trace 1
// the per-layer ones. A wrong model fails the run: correct is false
// and the exit code is 1. See perfbench/README.md for the workloads,
// the metric definitions and which layer metric should move which
// end-to-end metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable lines printed before the result.
	notes []string
}

// runConfig is the command line of one run.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	// dir is a working directory the run owns (WAL stores); it is
	// removed when the run ends.
	dir string
	// spansOut, when non-empty, receives the traced run's spans as
	// JSON lines.
	spansOut string
}

// workload is one named input set.
type workload struct {
	name string
	run  func(cfg runConfig) (*report, error)
}

func workloads() []workload {
	return []workload{
		{"learn-b150", func(c runConfig) (*report, error) { return runBatch(c, learnB150) }},
		{"learn-exact-lite", func(c runConfig) (*report, error) { return runBatch(c, learnExactLite) }},
		{"serve-wal", func(c runConfig) (*report, error) { return runServed(c, serveWAL) }},
		{"serve-cluster", func(c runConfig) (*report, error) { return runServed(c, serveCluster) }},
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1: record spans and report the per-layer metrics")
		dir     = flag.String("dir", ".bench_build", "build-output directory (WAL stores and span dumps go below it)")
	)
	flag.Parse()
	var w *workload
	var names []string
	for _, c := range workloads() {
		names = append(names, c.name)
		if c.name == *name {
			w = &c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	work, err := os.MkdirTemp(mustMkdir(*dir), "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		traced:  *traced == 1,
		dir:     work,
	}
	if cfg.traced {
		cfg.spansOut = filepath.Join(*dir, "spans-"+w.name+".jsonl")
	}
	rep, err := w.run(cfg)
	if rmErr := os.RemoveAll(work); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	for name, m := range rep.Metrics {
		// JSON cannot carry NaN or Inf; a metric that could not be
		// computed fails the run.
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			rep.Metrics[name] = metric{0, m.Unit}
			rep.Attempted++
			rep.Failed++
			rep.notes = append(rep.notes, "FAILED: metric "+name+" could not be computed")
		}
	}
	rep.Correct = rep.Failed == 0
	printReport(w.name, cfg, rep)
	if !rep.Correct {
		os.Exit(1)
	}
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	return dir
}

// printReport writes the human-readable lines and then the result
// object as the last line of standard output.
func printReport(name string, cfg runConfig, rep *report) {
	fmt.Printf("# workload=%s seed=%d seconds=%g trace=%v nproc=%d GOMAXPROCS=%d go=%s\n",
		name, cfg.seed, cfg.seconds.Seconds(), cfg.traced, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	keys := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := rep.Metrics[k]
		fmt.Printf("# %-32s %14.6g %s\n", k, m.Value, m.Unit)
	}
	ratio := float64(rep.Failed) / float64(max(rep.Attempted, 1))
	fmt.Printf("# %-32s %14.6g %s (%d of %d operations failed)\n", "error_ratio", ratio, "fraction", rep.Failed, rep.Attempted)
	out, err := json.Marshal(rep)
	if err != nil {
		panic(err) // a map of plain numbers always encodes
	}
	fmt.Println(string(out))
}

// tally counts attempted and failed operations and keeps the first
// few failure messages for the report.
type tally struct {
	attempted, failed int
	errs              []string
}

// op records one operation; a non-nil err counts it as failed.
func (t *tally) op(err error) bool {
	t.attempted++
	if err == nil {
		return true
	}
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, err.Error())
	}
	return false
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

func (t *tally) fill(rep *report) {
	rep.Attempted, rep.Failed = t.attempted, t.failed
	for _, e := range t.errs {
		rep.notes = append(rep.notes, "FAILED: "+e)
	}
}
