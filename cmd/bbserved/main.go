// Command bbserved runs the model-generation service: a long-running
// HTTP server that multiplexes many independent trace streams, each
// backed by its own online learner (internal/serve).
//
// Usage:
//
//	bbserved -addr :8080 -checkpoint-dir /var/lib/bbserved
//	bbserved -addr :8080 -queue 128 -checkpoint-every 32 -compact-bytes 1048576
//	bbserved -addr :8081 -cluster -node-id node-0 -checkpoint-dir /var/lib/bbserved-0
//
// API (JSON unless noted):
//
//	POST   /v1/streams                   create a stream (tasks, learner options)
//	GET    /v1/streams                   list streams
//	POST   /v1/streams/{id}/events      append raw trace or candump lines (text body)
//	GET    /v1/streams/{id}/model       current dependency model (?format=dot for DOT)
//	GET    /v1/streams/{id}/stats       ingest and learner statistics
//	POST   /v1/streams/{id}/compact     compact the stream's WAL into a base snapshot now
//	DELETE /v1/streams/{id}             drain and delete a stream
//	GET    /healthz                      liveness
//	GET    /metrics                      Prometheus exposition
//	GET    /slo                          SLO burn-rate status (JSON)
//	GET    /debug/streams                per-stream operational state (JSON)
//	GET    /debug/traces                 recent request traces (?trace=<id>, ?format=jsonl)
//
// A full ingest queue answers 429 with Retry-After; resend the batch
// unchanged (rejection is atomic). With -checkpoint-dir every learned
// period is appended to a per-stream write-ahead log before the next
// one starts, so any restart — drained or not — reopens every stream
// with identical learner state. Restore is an index scan: stream
// state pages in lazily on first touch, so restart cost tracks the
// active set, not the corpus. On SIGINT/SIGTERM the server stops
// accepting requests, drains every stream, and exits.
//
// With -cluster the server joins a bbgate-fronted cluster as the named
// node: the serve API is wrapped in epoch fencing, and /cluster/*
// endpoints expose checkpoint handoff, import, and the node's metrics
// snapshot for gateway aggregation (internal/cluster).
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/blackbox-rt/modelgen/internal/cluster"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
	"github.com/blackbox-rt/modelgen/internal/slo"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("bbserved: ")
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		ckptDir  = flag.String("checkpoint-dir", "", "root of the stream state store (empty = in-memory only)")
		ckptEach = flag.Int("checkpoint-every", 0, "compact a stream's WAL into a base snapshot after this many records (0 = store default)")
		cmpBytes = flag.Int64("compact-bytes", 0, "also compact when a stream's WAL exceeds this many bytes (0 = store default)")
		cmpJit   = flag.Float64("compact-jitter", 0, "per-stream jitter fraction on the compaction thresholds (0 = store default)")
		queue    = flag.Int("queue", 256, "per-stream ingest queue depth")
		maxBody  = flag.Int64("max-body", 8<<20, "maximum events request body in bytes")
		drainFor = flag.Duration("drain-timeout", 30*time.Second, "maximum time to drain streams on shutdown")
		pprof    = flag.String("pprof", "", "also serve /debug/pprof/ and /metrics on this address")

		traceSample = flag.Float64("trace-sample", 0.01, "head-sampling probability for traces the client did not already sample (an upstream-sampled traceparent is always recorded); 0 disables tracing")
		traceRing   = flag.Int("trace-ring", 4096, "spans held in the in-memory ring behind /debug/traces")
		traceOut    = flag.String("trace-out", "", "also append every recorded span as JSONL to this file")
		sloP99      = flag.Duration("slo-p99", 500*time.Millisecond, "ingest-latency SLO threshold (p99)")
		sloEvery    = flag.Duration("slo-every", 10*time.Second, "SLO burn-rate sampling interval")

		clusterMode = flag.Bool("cluster", false, "run as a cluster member: expose /cluster/* handoff, import, fencing and metrics endpoints (front with bbgate)")
		nodeID      = flag.String("node-id", "", "this node's name on the placement ring (required with -cluster)")
	)
	flag.Parse()
	if *clusterMode && *nodeID == "" {
		log.Fatal("-cluster requires -node-id")
	}

	reg := obs.NewRegistry()
	obs.RuntimeMetrics(reg)
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	var tracer *obs.Tracer
	if *traceSample > 0 {
		tracer = obs.NewTracer(obs.TracerConfig{Capacity: *traceRing, Sample: *traceSample})
		if *traceOut != "" {
			fs, err := obs.OpenFileSink(*traceOut)
			if err != nil {
				log.Fatalf("trace-out: %v", err)
			}
			defer fs.Close()
			tracer.SetSink(fs.JSONLSink)
			log.Printf("streaming spans to %s", fs.Path())
		}
	}
	mon := slo.NewMonitor(slo.Config{
		Registry:   reg,
		Objectives: slo.DefaultServeObjectives(sloP99.Seconds()),
	})
	stopMon := mon.Start(*sloEvery)
	defer stopMon()
	sv := serve.New(serve.Config{
		CheckpointDir:   *ckptDir,
		CheckpointEvery: *ckptEach,
		CompactBytes:    *cmpBytes,
		CompactJitter:   *cmpJit,
		QueueDepth:      *queue,
		MaxBody:         *maxBody,
		Registry:        reg,
		Tracer:          tracer,
		SLO:             mon.Handler(),
		Logf:            log.Printf,
	})
	if n, err := sv.RestoreFromDir(); err != nil {
		log.Fatalf("restore: %v", err)
	} else if n > 0 {
		log.Printf("restored %d stream(s) from %s", n, *ckptDir)
	}

	if *pprof != "" {
		dbg, err := obs.StartDebugServer(*pprof, reg)
		if err != nil {
			log.Fatalf("pprof: %v", err)
		}
		defer dbg.Close()
		log.Printf("debug server on %s", dbg.Addr)
	}

	handler := sv.Handler()
	if *clusterMode {
		node := cluster.NewNode(cluster.NodeConfig{
			ID:       *nodeID,
			Server:   sv,
			Registry: reg,
			Logf:     log.Printf,
		})
		handler = node.Handler()
		log.Printf("cluster mode: node %s", *nodeID)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: handler}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()
	log.Printf("serving on %s", ln.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop()
	log.Printf("draining (up to %s)...", *drainFor)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainFor)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := sv.Shutdown(drainCtx); err != nil {
		log.Printf("drain: %v", err)
	}
	log.Print("done")
}
