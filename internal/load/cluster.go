package load

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/blackbox-rt/modelgen/internal/cluster"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/obs"
	"github.com/blackbox-rt/modelgen/internal/serve"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// ClusterConfig configures the cluster scenario: an in-process N-node
// bbserved cluster behind a bbgate router, a fleet of streams fed
// through the gateway, and a batch of forced migrations mid-run. The
// SLO gate must hold across the migrations (the gateway pauses a
// migrating stream's requests rather than failing them), and every
// stream's final model must match a single-node reference run.
type ClusterConfig struct {
	// Dir is the root for the per-node state stores; empty runs the
	// nodes in memory.
	Dir string
	// Nodes is the cluster size (default 3).
	Nodes int
	// Streams is the fleet size (default 200).
	Streams int
	// Periods is the period count fed per stream, one batch each
	// (default 6).
	Periods int
	// Migrations is how many streams are forcibly migrated to another
	// node once half their periods are in flight (default 10).
	Migrations int
	// QueueDepth sets each node's per-stream ingest queue.
	QueueDepth int
	// Seed pins the placement ring.
	Seed uint64
	// SLO holds the thresholds evaluated into the report
	// (P99LatencySeconds and MinAvailability apply here).
	SLO Thresholds
}

// ClusterReport is the outcome of a cluster scenario.
type ClusterReport struct {
	Nodes      int `json:"nodes"`
	Streams    int `json:"streams"`
	Periods    int `json:"periods_per_stream"`
	Migrations int `json:"migrations"`
	// MigrationFailures counts forced migrations that returned an
	// error; the gate pins it at zero.
	MigrationFailures int `json:"migration_failures"`
	// Requests counts ingest POSTs, Retries the transient 429/503
	// re-sends within them, Errors the batches that never got in.
	Requests int64 `json:"requests"`
	Retries  int64 `json:"retries"`
	Errors   int64 `json:"errors"`
	// Availability is accepted / (accepted + errors).
	Availability float64 `json:"availability"`
	// Ingest summarizes per-request gateway POST latency; P99 repeats
	// Ingest.P99, the value the SLO gate reads.
	Ingest Latency `json:"ingest"`
	P99    float64 `json:"p99_seconds"`
	// Spread is the final stream count per node.
	Spread map[string]int `json:"spread"`
	// Equivalence is the number of streams whose final model was
	// verified bit-identical to the single-node reference.
	Equivalence int `json:"equivalence_checked"`
	// Failures samples the first batches that never got in.
	Failures   []Failure `json:"failures,omitempty"`
	Violations []string  `json:"violations,omitempty"`
}

// Violated reports whether the scenario broke its gate.
func (r ClusterReport) Violated() bool { return len(r.Violations) > 0 }

// Format renders the human-readable cluster report.
func (r ClusterReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bbload cluster report: %d nodes, %d streams × %d periods, %d forced migrations\n",
		r.Nodes, r.Streams, r.Periods, r.Migrations)
	fmt.Fprintf(&sb, "requests %d (retries %d, errors %d)  availability %.4f\n",
		r.Requests, r.Retries, r.Errors, r.Availability)
	fmt.Fprintf(&sb, "ingest: p50 %s p95 %s p99 %s max %s\n",
		fmtSec(r.Ingest.P50), fmtSec(r.Ingest.P95), fmtSec(r.P99), fmtSec(r.Ingest.Max))
	fmt.Fprintf(&sb, "spread: %v  models verified: %d\n", r.Spread, r.Equivalence)
	formatTail(&sb, r.Failures, r.Violations, "cluster: ok\n", "CLUSTER VIOLATION")
	return sb.String()
}

func clusterStreamID(i int) string { return fmt.Sprintf("c-%05d", i) }
func clusterNodeName(i int) string { return fmt.Sprintf("node-%d", i) }

// clusterWorkers bounds the concurrent create and feed goroutines.
const clusterWorkers = 16

// RunCluster executes the cluster scenario.
func RunCluster(ctx context.Context, cfg ClusterConfig) (ClusterReport, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 200
	}
	if cfg.Periods <= 0 {
		cfg.Periods = 6
	}
	if cfg.Migrations < 0 {
		cfg.Migrations = 0
	} else if cfg.Migrations == 0 {
		cfg.Migrations = 10
	}
	if cfg.Migrations > cfg.Streams {
		cfg.Migrations = cfg.Streams
	}
	rep := ClusterReport{Nodes: cfg.Nodes, Streams: cfg.Streams, Periods: cfg.Periods,
		Migrations: cfg.Migrations, Spread: map[string]int{}}

	// Boot the cluster: N serve instances wrapped in cluster nodes,
	// all reached in process through the gateway.
	servers := make([]*serve.Server, cfg.Nodes)
	backends := make([]cluster.Backend, cfg.Nodes)
	for i := range servers {
		dir := ""
		if cfg.Dir != "" {
			dir = filepath.Join(cfg.Dir, clusterNodeName(i))
		}
		reg := obs.NewRegistry()
		servers[i] = serve.New(serve.Config{CheckpointDir: dir, QueueDepth: cfg.QueueDepth, Registry: reg})
		node := cluster.NewNode(cluster.NodeConfig{ID: clusterNodeName(i), Server: servers[i], Registry: reg})
		backends[i] = cluster.Backend{
			Name:   clusterNodeName(i),
			URL:    "http://" + clusterNodeName(i),
			Client: inproc(node.Handler()).c,
		}
	}
	defer func() {
		for _, sv := range servers {
			_ = sv.Shutdown(context.Background())
		}
	}()
	gw, err := cluster.NewGateway(cluster.GatewayConfig{
		Backends:      backends,
		Ring:          cluster.RingConfig{Seed: cfg.Seed},
		Registry:      obs.NewRegistry(),
		MigrationWait: 10 * time.Second,
	})
	if err != nil {
		return rep, err
	}
	tgt := inproc(gw.Handler())

	// Create the fleet through the gateway.
	if err := fanOut(ctx, cfg.Streams, clusterWorkers, func(i int) error {
		return tgt.create(ctx, serve.CreateStreamRequest{ID: clusterStreamID(i)})
	}); err != nil {
		return rep, err
	}

	// Feed phase. Each stream sends its periods in order; once half
	// the fleet-wide batches are in, the migration goroutine moves the
	// first Migrations streams to the next node on the ring — while
	// their feeds keep coming, which is the point.
	var (
		sentBatches atomic.Int64
		retries     atomic.Int64
		errs        atomic.Int64
		halfway     = int64(cfg.Streams*cfg.Periods) / 2
		halfwayCh   = make(chan struct{})
		halfwayOnce sync.Once
		latMu       sync.Mutex
		latencies   []float64
		failures    failureSample
		migFailures atomic.Int64
		migDone     = make(chan struct{})
	)
	go func() {
		defer close(migDone)
		select {
		case <-halfwayCh:
		case <-ctx.Done():
			return
		}
		for i := 0; i < cfg.Migrations; i++ {
			id := clusterStreamID(i)
			owner, _ := gw.Owner(id)
			var n int
			fmt.Sscanf(owner, "node-%d", &n)
			if err := gw.Migrate(id, clusterNodeName((n+1)%cfg.Nodes)); err != nil {
				migFailures.Add(1)
			}
		}
	}()
	feedErr := fanOut(ctx, cfg.Streams, clusterWorkers, func(i int) error {
		id := clusterStreamID(i)
		for k := 0; k < cfg.Periods; k++ {
			batch := []byte(renderBatch(k, 1, false, 0))
			deadline := time.Now().Add(30 * time.Second)
			for {
				o := tgt.post(ctx, id, batch, nil)
				if o.kind == accepted {
					latMu.Lock()
					latencies = append(latencies, o.latency)
					latMu.Unlock()
					if sentBatches.Add(1) >= halfway {
						halfwayOnce.Do(func() { close(halfwayCh) })
					}
					break
				}
				if o.kind == failed || time.Now().After(deadline) {
					errs.Add(1)
					failures.add(id, o)
					break
				}
				retries.Add(1)
				time.Sleep(2 * time.Millisecond)
			}
		}
		return nil
	})
	// A short fleet never reaches halfway from inside the loop when
	// batches error out; release the migration goroutine regardless.
	halfwayOnce.Do(func() { close(halfwayCh) })
	<-migDone
	if feedErr != nil {
		return rep, feedErr
	}

	rep.Retries = retries.Load()
	rep.Errors = errs.Load()
	rep.Requests = sentBatches.Load() + rep.Errors
	if rep.Requests > 0 {
		rep.Availability = float64(sentBatches.Load()) / float64(rep.Requests)
	}
	rep.Ingest = summarize(latencies)
	rep.P99 = rep.Ingest.P99
	rep.Failures = failures.list
	rep.MigrationFailures = int(migFailures.Load())

	// Equivalence oracle: every stream's served model must equal the
	// single-node reference over the same period sequence.
	refTables, refLUB, err := clusterReference(cfg.Periods)
	if err != nil {
		return rep, err
	}
	for i := 0; i < cfg.Streams; i++ {
		id := clusterStreamID(i)
		node, _ := gw.Owner(id)
		rep.Spread[node]++
		var m serve.ModelResponse
		if err := tgt.getJSON(ctx, "/v1/streams/"+id+"/model", &m); err != nil {
			rep.Violations = append(rep.Violations, fmt.Sprintf("cluster: model %s: %v", id, err))
			continue
		}
		if !modelMatches(m, refTables, refLUB) {
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("cluster: stream %s model differs from single-node reference", id))
			continue
		}
		rep.Equivalence++
	}
	rep.Violations = append(rep.Violations, evaluateCluster(rep, cfg)...)
	return rep, nil
}

// clusterReference learns the fleet's period sequence on a single
// node: the text the streams were fed, read back through trace's own
// reader.
func clusterReference(periods int) ([]string, string, error) {
	text := "tasks " + strings.Join(fleetTasks, " ") + "\n" + renderBatch(0, periods, false, 0)
	tr, err := trace.ReadString(text)
	if err != nil {
		return nil, "", err
	}
	o, err := learner.NewOnline(tr.Tasks, learner.Options{})
	if err != nil {
		return nil, "", err
	}
	for _, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			return nil, "", err
		}
	}
	res, err := o.Result()
	if err != nil {
		return nil, "", err
	}
	var tables []string
	for _, d := range res.Hypotheses {
		tables = append(tables, d.Table())
	}
	return tables, res.LUB.Table(), nil
}

func modelMatches(m serve.ModelResponse, tables []string, lub string) bool {
	if m.LUB != lub || len(m.Hypotheses) != len(tables) {
		return false
	}
	for i := range tables {
		if m.Hypotheses[i] != tables[i] {
			return false
		}
	}
	return true
}

func evaluateCluster(rep ClusterReport, cfg ClusterConfig) []string {
	var out []string
	if rep.MigrationFailures > 0 {
		out = append(out, fmt.Sprintf("cluster: %d forced migrations failed", rep.MigrationFailures))
	}
	if rep.Equivalence != rep.Streams {
		out = append(out, fmt.Sprintf("cluster: only %d of %d models matched the reference",
			rep.Equivalence, rep.Streams))
	}
	if len(rep.Spread) != cfg.Nodes {
		out = append(out, fmt.Sprintf("cluster: streams landed on %d of %d nodes", len(rep.Spread), cfg.Nodes))
	}
	if t := cfg.SLO.MinAvailability; t > 0 && rep.Availability < t {
		out = append(out, fmt.Sprintf("cluster: availability %.4f below %.4f", rep.Availability, t))
	}
	if t := cfg.SLO.P99LatencySeconds; t > 0 && rep.P99 > t {
		out = append(out, fmt.Sprintf("cluster: ingest p99 %.3fs above %.3fs", rep.P99, t))
	}
	return out
}
