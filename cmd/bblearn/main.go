// Command bblearn runs the generalization algorithm of Feng et al.
// (DATE 2007) over a trace file and prints the learned dependency
// model.
//
// Usage:
//
//	bblearn -trace trace.txt -bound 32
//	bblearn -trace trace.txt -exact -max 1000000
//	bblearn -trace trace.txt -bound 16 -report -dot deps.dot
//	bblearn -trace trace.txt -v -stats -events run.jsonl -pprof :6060
//	bblearn -trace trace.txt -exact -explain t1,t4
//
// Observability: -v prints a per-period progress line, -stats a
// run-statistics table (periods, peak/final hypotheses, merges,
// candidate fan-out, elapsed), -events writes the structured JSONL
// event stream for offline analysis, -explain records provenance and
// prints the derivation chain of one dependency entry, and -pprof
// serves /debug/pprof/ plus /metrics during the run for profiling
// long exact learns.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	modelgen "github.com/blackbox-rt/modelgen"
)

// progressObserver is the -v reporter: one line per period on stderr,
// driven by the structured run-trace instead of ad-hoc prints.
type progressObserver struct{ modelgen.NopObserver }

func (progressObserver) OnPeriodEnd(e modelgen.PeriodEndEvent) {
	skipped := ""
	if e.Skipped {
		skipped = ", skipped: shape learned or hypothesis saturated"
	}
	fmt.Fprintf(os.Stderr, "period %4d: %d hypotheses (dropped %d, weight %d..%d%s)\n",
		e.Period, e.Live, e.Dropped, e.WeightMin, e.WeightMax, skipped)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bblearn: ")
	var (
		traceFile    = flag.String("trace", "", "trace file in the text format (default stdin)")
		bound        = flag.Int("bound", 32, "heuristic bound b (ignored with -exact)")
		exact        = flag.Bool("exact", false, "run the exact (exponential) algorithm")
		maxHyp       = flag.Int("max", 5_000_000, "abort the exact algorithm beyond this working-set size (0 = unlimited)")
		senderWin    = flag.Int64("sender-window", 0, "candidate policy: sender must end within this window before the rise (0 = unlimited)")
		receiverWin  = flag.Int64("receiver-window", 0, "candidate policy: receiver must start within this window after the fall (0 = unlimited)")
		maxSenders   = flag.Int("max-senders", 0, "candidate policy: keep only the K most recent enders as senders (0 = all)")
		maxReceivers = flag.Int("max-receivers", 0, "candidate policy: keep only the K soonest starters as receivers (0 = all)")
		all          = flag.Bool("all", false, "print every returned hypothesis, not only the least upper bound")
		dotFile      = flag.String("dot", "", "write the learned dependency graph as DOT to this file")
		report       = flag.Bool("report", false, "print the verification report (node classes, state-space impact)")
		verbose      = flag.Bool("v", false, "per-period progress on stderr")
		stats        = flag.Bool("stats", false, "print the run-statistics table")
		eventsFile   = flag.String("events", "", "write the JSONL event stream to this file")
		explain      = flag.String("explain", "", "record provenance and print the derivation chain of entry d(T1,T2) (format: T1,T2)")
		pprofAddr    = flag.String("pprof", "", "serve /debug/pprof/ and /metrics on this address during the run (e.g. :6060)")
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
	// fatalf flushes the event sink before exiting: on a failure the
	// events leading up to it are the diagnostic.
	fatalf := func(format string, args ...any) {
		if sink != nil {
			_ = sink.Close()
		}
		log.Fatalf(format, args...)
	}
	if *verbose {
		observers = append(observers, progressObserver{})
	}
	obsv := modelgen.CombineObservers(observers...)
	if *pprofAddr != "" {
		srv, err := modelgen.StartDebugServer(*pprofAddr, reg)
		if err != nil {
			fatalf("pprof server: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "bblearn: profiling on http://%s/debug/pprof/ (metrics on /metrics)\n", srv.Addr)
	}

	in := os.Stdin
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		in = f
	}
	tr, err := modelgen.ReadTraceObserved(in, obsv)
	if err != nil {
		fatalf("reading trace: %v", err)
	}

	opt := modelgen.LearnOptions{
		Policy: modelgen.CandidatePolicy{
			SenderWindow:   *senderWin,
			ReceiverWindow: *receiverWin,
			MaxSenders:     *maxSenders,
			MaxReceivers:   *maxReceivers,
		},
		Observer:   obsv,
		Provenance: *explain != "",
	}
	if *exact {
		opt.MaxHypotheses = *maxHyp
	} else {
		opt.Bound = *bound
	}

	res, err := modelgen.Learn(tr, opt)
	if err != nil {
		fatalf("learning: %v", err)
	}

	mode := fmt.Sprintf("heuristic (bound %d)", *bound)
	if *exact {
		mode = "exact"
	}
	fmt.Printf("algorithm:  %s\n", mode)
	fmt.Printf("run time:   %v\n", res.Stats.Elapsed.Round(time.Microsecond))
	fmt.Printf("hypotheses: %d (peak %d, %d generalizations, %d merges, %d relaxations)\n",
		len(res.Hypotheses), res.Stats.Peak, res.Stats.Children, res.Stats.Merges, res.Stats.Relaxations)
	fmt.Printf("converged:  %v\n\n", res.Converged)

	if *stats {
		printStats(res, reg)
	}
	if *explain != "" {
		t1, t2, ok := strings.Cut(*explain, ",")
		if !ok {
			fatalf("-explain wants T1,T2 (e.g. -explain t1,t4)")
		}
		t1, t2 = strings.TrimSpace(t1), strings.TrimSpace(t2)
		steps, err := res.Explain(t1, t2)
		if err != nil {
			fatalf("explain: %v", err)
		}
		fmt.Printf("derivation of d(%s,%s) = %s (most specific hypothesis):\n",
			t1, t2, res.Hypotheses[0].At(res.TaskSet.Index(t1), res.TaskSet.Index(t2)))
		if len(steps) == 0 {
			fmt.Println("  (no steps: the entry never left ||)")
		}
		for _, s := range steps {
			fmt.Printf("  %s\n", s.Format(res.TaskSet))
		}
		fmt.Println()
	}
	if *all {
		for i, d := range res.Hypotheses {
			fmt.Printf("hypothesis %d (weight %d):\n%s\n", i+1, d.Weight(), d.Table())
		}
	}
	fmt.Println("least upper bound:")
	fmt.Println(res.LUB.Table())

	if *report {
		rep := modelgen.Analyze(res.LUB)
		fmt.Printf("disjunction nodes:   %v\n", rep.Disjunctions)
		fmt.Printf("conjunction nodes:   %v\n", rep.Conjunctions)
		fmt.Printf("dependency entries:  %d firm, %d conditional, %d unknown, %d independent (of %d)\n",
			rep.Firm, rep.Conditional, rep.Unknown, rep.Independent, rep.TotalPairs)
		fmt.Printf("ordering known:      %.1f%%\n", rep.OrderingKnown*100)
		fmt.Printf("interleavings cut:   %.1f%%\n", rep.InterleavingReduction*100)
	}
	if *dotFile != "" {
		if err := os.WriteFile(*dotFile, []byte(res.LUB.DOT("learned")), 0o644); err != nil {
			fatalf("writing %s: %v", *dotFile, err)
		}
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			log.Fatalf("writing %s: %v", *eventsFile, err)
		}
	}
}

// printStats renders the run-statistics table: headline numbers from
// LearnResult.Stats plus the candidate fan-out distribution from the
// metrics registry.
func printStats(res *modelgen.LearnResult, reg *modelgen.MetricsRegistry) {
	s := res.Stats
	fmt.Println("stats:")
	fmt.Printf("  periods:           %d\n", s.Periods)
	fmt.Printf("  messages:          %d\n", s.Messages)
	fmt.Printf("  candidate pairs:   %d", s.Candidates)
	if s.Messages > 0 {
		fmt.Printf(" (%.1f per message)", float64(s.Candidates)/float64(s.Messages))
	}
	fmt.Println()
	fmt.Printf("  hypotheses peak:   %d\n", s.Peak)
	fmt.Printf("  hypotheses final:  %d\n", s.Final)
	fmt.Printf("  generalizations:   %d\n", s.Children)
	fmt.Printf("  merges:            %d\n", s.Merges)
	fmt.Printf("  relaxations:       %d\n", s.Relaxations)
	fmt.Printf("  elapsed:           %v\n", s.Elapsed.Round(time.Microsecond))
	if reg != nil {
		snap := reg.Snapshot()
		if m, ok := snap["modelgen_learner_candidates_per_message"]; ok && m.Count > 0 {
			fmt.Printf("  candidate fan-out: ")
			prev := int64(0)
			for _, b := range m.Buckets {
				if b.Count > prev {
					fmt.Printf("<=%g:%d ", b.LE, b.Count-prev)
				}
				prev = b.Count
			}
			if rest := m.Count - prev; rest > 0 {
				fmt.Printf(">%g:%d", m.Buckets[len(m.Buckets)-1].LE, rest)
			}
			fmt.Println()
		}
	}
	fmt.Println()
}
