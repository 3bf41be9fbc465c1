// Command bbload is the SLO-tracked load generator for bbserved: it
// drives N synthetic text and candump streams at a target aggregate
// batch rate against a live server (-addr) or an in-process one
// (default), reports p50/p95/p99 client-observed ingest latency,
// throughput, shed rate and availability per stream class, and — with
// -slo — exits nonzero when an objective is violated, so CI can gate
// on "the service still serves under load".
//
// Usage:
//
//	bbload -streams 64 -duration 5s -slo            # in-process smoke
//	bbload -addr http://host:8080 -streams 1000 -duration 30s -rate 2000
//	bbload -streams 8 -duration 5s -rate 96 -drift-flip 20 -slo   # drift injection
//	bbload -restart -streams 1000 -active 10 -json  # cold-restart benchmark
//	bbload -cluster -streams 200 -slo               # cluster smoke with forced migrations
//
// -restart switches to the cold-restart scenario: seed -streams
// checkpointed streams into a store, restart the server from disk,
// drive -active of them, and report restore time plus per-stream
// first-ingest latency (the lazy-hydration cost). Always in process.
//
// -cluster switches to the cluster scenario: boot -cluster-nodes
// in-process bbserved nodes behind a bbgate router, feed -streams
// streams through the gateway, force -cluster-migrations checkpoint
// handoffs while the feeds are in flight, then verify every stream's
// model against a single-node reference. Always in process.
//
// Exit codes: 0 ok, 1 SLO violation (-slo only), 2 run error,
// 3 goroutine leak after in-process shutdown.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"github.com/blackbox-rt/modelgen/internal/load"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
	"github.com/blackbox-rt/modelgen/internal/slo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbload: ")
	var (
		addr        = flag.String("addr", "", "target server base URL (empty = run bbserved in-process)")
		streams     = flag.Int("streams", 64, "number of concurrent synthetic streams")
		duration    = flag.Duration("duration", 5*time.Second, "load duration")
		rate        = flag.Float64("rate", 0, "aggregate batches/sec across all streams (0 = 2 per stream)")
		perBatch    = flag.Int("periods-per-batch", 3, "learnable periods per batch")
		canFrac     = flag.Float64("candump-fraction", 0.5, "fraction of candump-class streams")
		traceSample = flag.Float64("trace-sample", 0, "fraction of batches sent with a traceparent header")
		queue       = flag.Int("queue", 256, "per-stream ingest queue depth (in-process mode)")
		jsonOut     = flag.Bool("json", false, "print the report as JSON")
		sloGate     = flag.Bool("slo", false, "exit 1 when an SLO threshold is violated")
		sloP99      = flag.Duration("slo-p99", 500*time.Millisecond, "p99 ingest latency threshold")
		sloShed     = flag.Float64("slo-shed", 0.01, "maximum shed rate")
		sloAvail    = flag.Float64("slo-availability", 0.999, "minimum availability")
		driftFlip   = flag.Int("drift-flip", 0, "drift scenario: flip every stream's regime after this many periods (0 = off)")
		driftWindow = flag.Int("drift-window", 20, "drift scenario: detection-lag bound in periods")
		restart     = flag.Bool("restart", false, "run the cold-restart scenario instead of the load profile")
		restartDir  = flag.String("restart-dir", "", "restart scenario: store root (empty = temp dir, removed after)")
		active      = flag.Int("active", 10, "restart scenario: streams driven after the restart")
		periods     = flag.Int("periods", 3, "restart scenario: seeded periods per stream")
		clusterRun  = flag.Bool("cluster", false, "run the cluster scenario instead of the load profile")
		clusterN    = flag.Int("cluster-nodes", 3, "cluster scenario: in-process node count")
		clusterMig  = flag.Int("cluster-migrations", 10, "cluster scenario: streams force-migrated mid-run")
		clusterPer  = flag.Int("cluster-periods", 6, "cluster scenario: periods fed per stream")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	switch {
	case *restart:
		os.Exit(runRestart(ctx, *restartDir, load.RestartConfig{
			Streams:    *streams,
			Active:     *active,
			Periods:    *periods,
			QueueDepth: *queue,
		}, *jsonOut, *sloGate))
	case *clusterRun:
		os.Exit(runCluster(ctx, load.ClusterConfig{
			Nodes:      *clusterN,
			Streams:    *streams,
			Periods:    *clusterPer,
			Migrations: *clusterMig,
			QueueDepth: *queue,
			SLO: load.Thresholds{
				P99LatencySeconds: sloP99.Seconds(),
				MinAvailability:   *sloAvail,
			},
		}, *jsonOut, *sloGate))
	}

	thr := load.Thresholds{
		P99LatencySeconds: sloP99.Seconds(),
		MaxShedRate:       *sloShed,
		MinAvailability:   *sloAvail,
	}
	cfg := load.Config{
		Streams:         *streams,
		Duration:        *duration,
		Rate:            *rate,
		PeriodsPerBatch: *perBatch,
		CandumpFraction: *canFrac,
		TraceSample:     *traceSample,
		SLO:             thr,
		DriftFlipAfter:  *driftFlip,
		DriftWindow:     *driftWindow,
	}

	// In-process mode boots a full bbserved — registry, tracer, SLO
	// monitor — so the smoke run exercises the same code paths a
	// deployment would, and can check goroutine hygiene afterwards.
	var sv *serve.Server
	var stopMon func()
	baseline := runtime.NumGoroutine()
	if *addr == "" {
		reg := obs.NewRegistry()
		obs.RuntimeMetrics(reg)
		var tr *obs.Tracer
		if *traceSample > 0 {
			tr = obs.NewTracer(obs.TracerConfig{Sample: *traceSample})
		}
		mon := slo.NewMonitor(slo.Config{
			Registry:   reg,
			Objectives: slo.DefaultServeObjectives(thr.P99LatencySeconds),
		})
		stopMon = mon.Start(time.Second)
		sv = serve.New(serve.Config{
			Registry:   reg,
			Tracer:     tr,
			SLO:        mon.Handler(),
			QueueDepth: *queue,
		})
		cfg.Handler = sv.Handler()
		log.Printf("in-process bbserved: %d streams, %s", *streams, *duration)
	} else {
		cfg.BaseURL = *addr
		cfg.Cleanup = true
		log.Printf("target %s: %d streams, %s", *addr, *streams, *duration)
	}

	rep, err := load.Run(ctx, cfg)
	code := emit("run", rep, err, *jsonOut, *sloGate)
	if sv != nil && err == nil {
		stopMon()
		shCtx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		err := sv.Shutdown(shCtx)
		cancel()
		if err != nil {
			log.Printf("shutdown: %v", err)
			os.Exit(2)
		}
		if !goroutinesSettled(baseline) {
			log.Printf("goroutine leak: %d at start, %d after shutdown",
				baseline, runtime.NumGoroutine())
			code = 3
		}
	}
	os.Exit(code)
}

// report is what every scenario hands back.
type report interface {
	Format() string
	Violated() bool
}

// emit prints a scenario's outcome — the report as JSON or text, or
// the run error — and maps it to the exit code: 2 on a run error, 1
// on a violated gate under -slo, else 0.
func emit(scenario string, rep report, err error, jsonOut, sloGate bool) int {
	if err != nil {
		log.Printf("%s: %v", scenario, err)
		return 2
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		fmt.Print(rep.Format())
	}
	if sloGate && rep.Violated() {
		return 1
	}
	return 0
}

// runCluster executes the cluster scenario on a temporary store: an
// in-process N-node cluster behind a bbgate router, the stream fleet
// fed through the gateway, and forced checkpoint-handoff migrations
// mid-run.
func runCluster(ctx context.Context, cfg load.ClusterConfig, jsonOut, sloGate bool) int {
	dir, err := os.MkdirTemp("", "bbload-cluster-*")
	if err != nil {
		log.Printf("cluster: %v", err)
		return 2
	}
	defer os.RemoveAll(dir)
	cfg.Dir = dir
	log.Printf("cluster scenario: %d nodes, %d streams × %d periods, %d forced migrations",
		cfg.Nodes, cfg.Streams, cfg.Periods, cfg.Migrations)
	rep, err := load.RunCluster(ctx, cfg)
	return emit("cluster", rep, err, jsonOut, sloGate)
}

// runRestart executes the cold-restart scenario on dir, or on a
// temporary store when dir is empty.
func runRestart(ctx context.Context, dir string, cfg load.RestartConfig, jsonOut, sloGate bool) int {
	if dir == "" {
		tmp, err := os.MkdirTemp("", "bbload-restart-*")
		if err != nil {
			log.Printf("restart: %v", err)
			return 2
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	cfg.Dir = dir
	log.Printf("restart scenario: %d streams (%d active), store %s", cfg.Streams, cfg.Active, dir)
	rep, err := load.RunRestart(ctx, cfg)
	return emit("restart", rep, err, jsonOut, sloGate)
}

// goroutinesSettled waits for the goroutine count to return to (near)
// the pre-run baseline — the soak-test hygiene check as a CLI gate.
func goroutinesSettled(baseline int) bool {
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+5 {
			return true
		}
		time.Sleep(100 * time.Millisecond)
	}
	return false
}
