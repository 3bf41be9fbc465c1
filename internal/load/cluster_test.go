package load

import (
	"context"
	"strings"
	"testing"
	"time"
)

// TestRunClusterSmoke drives a scaled-down cluster scenario: a 3-node
// in-process cluster, a stream fleet spread by the ring, and forced
// migrations fired while the feeds are still in flight. The SLO gate
// must hold — the gateway pauses a migrating stream's writes instead
// of failing them — and every stream's final model must match the
// single-node reference.
func TestRunClusterSmoke(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cfg := ClusterConfig{
		Dir:        t.TempDir(),
		Nodes:      3,
		Streams:    48,
		Periods:    6,
		Migrations: 6,
		Seed:       7,
		SLO:        DefaultThresholds(),
	}
	rep, err := RunCluster(ctx, cfg)
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	t.Logf("\n%s", rep.Format())
	if rep.Violated() {
		t.Fatalf("cluster SLO gate failed:\n%s\nfailures: %v", strings.Join(rep.Violations, "\n"), rep.Failures)
	}
	if rep.Equivalence != cfg.Streams {
		t.Fatalf("verified %d of %d models", rep.Equivalence, cfg.Streams)
	}
	if rep.MigrationFailures != 0 {
		t.Fatalf("%d migrations failed", rep.MigrationFailures)
	}
	if len(rep.Spread) != cfg.Nodes {
		t.Fatalf("streams landed on %d of %d nodes: %v", len(rep.Spread), cfg.Nodes, rep.Spread)
	}
	if rep.Requests < int64(cfg.Streams*cfg.Periods) {
		t.Fatalf("requests %d below fleet total %d", rep.Requests, cfg.Streams*cfg.Periods)
	}
}
