// Command bbbench regenerates the runtime table of Section 3.4 — the
// heuristic learner's run time as a function of the bound, plus the
// exact algorithm on the exact-tractable configuration — and records
// it as benchmark telemetry: a versioned BENCH_<label>.json file with
// host metadata, per-bound median/p95 wall time, working-set pressure
// and allocation counts. A committed baseline can then gate
// regressions via -compare.
//
// Usage:
//
//	bbbench                                 # heuristic sweep on the full case study
//	bbbench -config lite -exact             # sweep + exact run on the lite subsystem
//	bbbench -config lite -exact -bounds 16 -repeat 5 -compare BENCH_exact_lite.json
//	bbbench -repeat 5                       # median of five runs per bound
//	bbbench -json BENCH_local.json          # write the telemetry file
//	bbbench -compare BENCH_base.json        # exit 1 on >10% regression vs the baseline
//	bbbench -compare base.json -threshold 25%
//	bbbench -stats -pprof :6060             # metrics dump + live profiling
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	modelgen "github.com/blackbox-rt/modelgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbbench: ")
	var (
		config  = flag.String("config", "full", "case-study configuration: full (18 tasks) or lite (7 tasks, exact-tractable)")
		boundsF = flag.String("bounds", "1,4,16,32,64,100,120,150", "comma-separated heuristic bounds (the paper's table)")
		exact   = flag.Bool("exact", false, "also run the exact algorithm (feasible only with -config lite)")
		repeat  = flag.Int("repeat", 3, "measurement repetitions per bound (median and p95 reported)")
		periods = flag.Int("periods", modelgen.CaseStudyPeriods, "simulated periods")
		seed    = flag.Int64("seed", modelgen.CaseStudySeed, "simulation seed")

		label      = flag.String("label", "local", "telemetry label (the file is BENCH_<label>.json)")
		jsonOut    = flag.String("json", "", "write the benchmark telemetry to this file")
		compareTo  = flag.String("compare", "", "compare against this baseline BENCH_*.json and exit non-zero on regression")
		threshold  = flag.String("threshold", "10%", "regression threshold for -compare (percentage or fraction)")
		stats      = flag.Bool("stats", false, "dump the accumulated metrics (Prometheus text) after the sweep")
		eventsFile = flag.String("events", "", "write the JSONL event stream of every run to this file")
		pprofAddr  = flag.String("pprof", "", "serve /debug/pprof/ and /metrics on this address during the sweep")
	)
	flag.Parse()

	var (
		observers []modelgen.Observer
		reg       *modelgen.MetricsRegistry
		sink      *modelgen.JSONLFileSink
	)
	if *stats || *pprofAddr != "" {
		reg = modelgen.NewMetricsRegistry()
		observers = append(observers, modelgen.NewMetricsObserver(reg))
	}
	if *eventsFile != "" {
		var err error
		sink, err = modelgen.OpenJSONLFile(*eventsFile)
		if err != nil {
			log.Fatal(err)
		}
		observers = append(observers, sink)
	}
	// fatalf flushes the event sink before exiting, so the stream up
	// to the failure survives for offline analysis.
	fatalf := func(format string, args ...any) {
		if sink != nil {
			_ = sink.Close()
		}
		log.Fatalf(format, args...)
	}
	obsv := modelgen.CombineObservers(observers...)
	if *pprofAddr != "" {
		srv, err := modelgen.StartDebugServer(*pprofAddr, reg)
		if err != nil {
			fatalf("pprof server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "bbbench: profiling on http://%s/debug/pprof/ (metrics on /metrics)\n", srv.Addr)
	}

	var m *modelgen.Model
	var pol modelgen.CandidatePolicy
	switch *config {
	case "full":
		m = modelgen.GMStyleModel()
		pol = modelgen.CaseStudyPolicy(false)
	case "lite":
		m = modelgen.GMStyleLiteModel()
		pol = modelgen.CaseStudyPolicy(true)
	default:
		fatalf("unknown config %q", *config)
	}
	bounds, err := parseBounds(*boundsF)
	if err != nil {
		fatalf("%v", err)
	}

	out, err := modelgen.Simulate(m, modelgen.SimOptions{Periods: *periods, Seed: *seed, Observer: obsv})
	if err != nil {
		fatalf("simulation: %v", err)
	}
	st := out.Trace.Stats()
	fmt.Printf("configuration %q: %d tasks, %d periods, %d messages, %d event pairs\n\n",
		*config, len(out.Trace.Tasks), st.Periods, st.Messages, st.EventPairs)

	file := modelgen.NewBenchFile(*label)
	file.Config = *config
	file.Periods = *periods
	file.Seed = *seed

	fmt.Printf("%8s %14s %14s %12s %10s %10s %8s\n",
		"Bound", "Median", "P95", "Hypotheses", "Converged", "PeakLive", "Merges")
	var exactLUB *modelgen.DepFunc
	measure := func(name string, bound int, opt modelgen.LearnOptions) *modelgen.LearnResult {
		var res *modelgen.LearnResult
		samples := modelgen.BenchMeasure(*repeat, func() {
			r, err := modelgen.Learn(out.Trace, opt)
			if err != nil {
				fatalf("%s: %v", name, err)
			}
			res = r
		})
		run := modelgen.BenchSummarize(name, bound, samples)
		run.Hypotheses = len(res.Hypotheses)
		run.Converged = res.Converged
		run.PeakLive = res.Stats.Peak
		run.Merges = res.Stats.Merges
		file.Runs = append(file.Runs, run)
		fmt.Printf("%8s %14v %14v %12d %10v %10d %8d",
			strings.TrimPrefix(name, "bound_"),
			time.Duration(run.MedianNS).Round(time.Microsecond),
			time.Duration(run.P95NS).Round(time.Microsecond),
			run.Hypotheses, run.Converged, run.PeakLive, run.Merges)
		if exactLUB != nil {
			if res.LUB.Equal(exactLUB) {
				fmt.Print("   LUB == exact")
			} else {
				fmt.Print("   LUB != exact")
			}
		}
		fmt.Println()
		return res
	}
	if *exact {
		res := measure("exact", 0, modelgen.LearnOptions{Policy: pol, MaxHypotheses: 10_000_000, Observer: obsv})
		exactLUB = res.LUB
	}
	for _, b := range bounds {
		measure(fmt.Sprintf("bound_%d", b), b, modelgen.LearnOptions{Bound: b, Policy: pol, Observer: obsv})
	}
	if exactLUB != nil {
		fmt.Println("\n(the paper reports 630.997 s for exact vs 0.220–19.048 s for the")
		fmt.Println("heuristic on a Pentium M 1.7 GHz; compare shapes, not absolutes)")
	}

	if *jsonOut != "" {
		if err := file.WriteFile(*jsonOut); err != nil {
			fatalf("writing %s: %v", *jsonOut, err)
		}
		fmt.Printf("\ntelemetry written to %s (schema v%d, %s, %s)\n",
			*jsonOut, modelgen.BenchSchemaVersion, file.Host.GoVersion, file.CreatedAt)
	}
	if *stats {
		fmt.Println("\nmetrics:")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			fatalf("writing metrics: %v", err)
		}
	}
	regressed := false
	if *compareTo != "" {
		th, err := modelgen.ParseBenchThreshold(*threshold)
		if err != nil {
			fatalf("%v", err)
		}
		baseline, err := modelgen.ReadBenchFile(*compareTo)
		if err != nil {
			fatalf("baseline: %v", err)
		}
		// Runs pair up by name, and bound_16 names a different workload
		// in each configuration.
		if baseline.Config != file.Config || baseline.Periods != file.Periods || baseline.Seed != file.Seed {
			fatalf("baseline %s measures config %q (%d periods, seed %d), this run config %q (%d periods, seed %d)",
				*compareTo, baseline.Config, baseline.Periods, baseline.Seed, file.Config, file.Periods, file.Seed)
		}
		regs := modelgen.BenchCompare(baseline, file, th)
		if len(regs) == 0 {
			fmt.Printf("\nno regression vs %s (threshold %s)\n", *compareTo, *threshold)
		} else {
			regressed = true
			fmt.Printf("\nREGRESSIONS vs %s (threshold %s):\n", *compareTo, *threshold)
			for _, r := range regs {
				fmt.Printf("  %s\n", r)
			}
		}
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			log.Fatalf("writing %s: %v", *eventsFile, err)
		}
	}
	if regressed {
		os.Exit(1)
	}
}

func parseBounds(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		b, err := strconv.Atoi(f)
		if err != nil || b <= 0 {
			return nil, fmt.Errorf("bad bound %q", f)
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no bounds given")
	}
	return out, nil
}
