// Command bbconform runs the conformance harness: every theorem
// oracle of internal/conformance over the golden trace corpus, plus
// the corpus-independent lattice and fingerprint laws. It prints a
// human summary, optionally writes the full JSON report, and exits
// non-zero when any oracle fails — the CI gate behind `make conform`.
//
// Usage:
//
//	bbconform                               # run the committed corpus
//	bbconform -corpus path/to/corpus        # run another corpus
//	bbconform -json conform.json            # also write the JSON report
//	bbconform -events events.jsonl          # stream obs events as JSONL
//	bbconform -smoke                        # harness self-test (mutation detection)
//	bbconform -drift                        # drift oracles only: change-point detection + false-alarm gate
//	bbconform -gen                          # (re)generate the golden corpus in place
//	bbconform -serve                        # feed the corpus through an in-process bbserved API
//	bbconform -serve -serve-addr URL        # ... or through an already-running deployment
//	bbconform -v                            # per-oracle progress lines
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"

	"github.com/blackbox-rt/modelgen/internal/conformance"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbconform: ")
	var (
		corpusDir = flag.String("corpus", "testdata/corpus", "corpus directory to run the oracles over")
		jsonOut   = flag.String("json", "", "write the full JSON conformance report to this file")
		events    = flag.String("events", "", "stream observability events as JSONL to this file")
		smoke     = flag.Bool("smoke", false, "run the harness self-test: inject faults the oracles must catch")
		driftOnly = flag.Bool("drift", false, "run only the drift oracles: change-point detection on drift entries, zero false alarms on stationary ones")
		gen       = flag.Bool("gen", false, "(re)generate the golden corpus under -corpus and exit")
		srv       = flag.Bool("serve", false, "run the served-model oracles: feed each entry through the bbserved HTTP API")
		srvAddr   = flag.String("serve-addr", "", "with -serve, base URL of a running service (empty = start one in process)")
		verbose   = flag.Bool("v", false, "print one line per oracle as it completes")
	)
	flag.Parse()

	if *smoke {
		if err := conformance.Smoke(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("smoke: injected faults were caught; the oracles are live")
		if !*gen && flag.NFlag() == 1 {
			return
		}
	}
	if *gen {
		c, err := conformance.GenerateCorpus()
		if err != nil {
			log.Fatal(err)
		}
		if err := conformance.WriteCorpus(*corpusDir, c); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("generated %d corpus entries under %s\n", len(c.Entries), *corpusDir)
		return
	}

	c, err := conformance.LoadCorpus(*corpusDir)
	if err != nil {
		log.Fatal(err)
	}

	var (
		observers []obs.Observer
		sink      *obs.FileSink
	)
	if *verbose {
		observers = append(observers, progressObserver{})
	}
	if *events != "" {
		sink, err = obs.OpenFileSink(*events)
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

	var rep *conformance.Report
	switch {
	case *driftOnly:
		rep = conformance.RunDrift(c, obs.NewMulti(observers...))
	case *srv:
		base := *srvAddr
		if base == "" {
			stop, addr, err := startLocalService()
			if err != nil {
				fatalf("%v", err)
			}
			defer stop()
			base = addr
		}
		rep = conformance.CheckServed(c, base, nil, obs.NewMulti(observers...))
	default:
		rep = conformance.Run(c, obs.NewMulti(observers...))
	}

	if *jsonOut != "" {
		raw, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*jsonOut, append(raw, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			log.Fatalf("writing %s: %v", *events, err)
		}
	}

	fmt.Printf("corpus %s (version %s): %d entries, %d oracles — %d passed, %d skipped, %d failed\n",
		*corpusDir, rep.CorpusVersion, len(rep.Entries), rep.Oracles, rep.Passed, rep.Skipped, rep.Failed)
	if !rep.Ok() {
		for _, er := range rep.Entries {
			printFailures(er.Name, er.Results)
		}
		printFailures("corpus", rep.Global)
		os.Exit(1)
	}
}

// startLocalService brings up an in-process model-generation service
// on a loopback port for -serve runs without -serve-addr, so the
// served-model oracles exercise the full HTTP stack (routing, body
// limits, backpressure) with no external deployment.
func startLocalService() (stop func(), baseURL string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	sv := serve.New(serve.Config{})
	httpSrv := &http.Server{Handler: sv.Handler()}
	go func() {
		if serr := httpSrv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			log.Printf("serve: %v", serr)
		}
	}()
	stop = func() {
		httpSrv.Close()
		ln.Close()
	}
	return stop, "http://" + ln.Addr().String(), nil
}

func printFailures(name string, results []conformance.OracleResult) {
	for _, res := range results {
		if res.Status != conformance.StatusFail {
			continue
		}
		fmt.Printf("FAIL %s/%s", name, res.Oracle)
		if res.Detail != "" {
			fmt.Printf(": %s", res.Detail)
		}
		fmt.Println()
		for _, v := range res.Violations {
			fmt.Printf("  %s: %s\n", v.Property, v.Detail)
		}
	}
}

// progressObserver prints one line per conformance pipeline event.
type progressObserver struct{ obs.NopObserver }

func (progressObserver) OnPipeline(e obs.Pipeline) {
	if e.Stage != "conformance" {
		return
	}
	fmt.Printf("%-40s %s\n", e.Label, e.Name)
}
