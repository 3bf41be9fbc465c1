package load

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/blackbox-rt/modelgen/internal/serve"
)

// RestartConfig configures a cold-restart scenario: seed a store with
// N checkpointed streams, restart the server from disk, and measure
// how long the restore scan takes and how quickly the first ingest on
// a small active subset becomes visible — the lazy-hydration cost a
// client actually observes. The scenario owns the server lifecycle,
// so it always runs in process.
type RestartConfig struct {
	// Dir is the store root; it must be empty or nonexistent (the seed
	// phase populates it and the restart phase re-opens it).
	Dir string
	// Streams is the number of streams seeded and checkpointed
	// (default 1000).
	Streams int
	// Active is how many of them receive traffic after the restart
	// (default 10).
	Active int
	// Periods is the learned periods seeded per stream (default 3).
	Periods int
	// QueueDepth sets the server's per-stream ingest queue.
	QueueDepth int
}

// RestartReport is the outcome of a cold-restart scenario.
type RestartReport struct {
	Streams int `json:"streams"`
	Active  int `json:"active"`
	Periods int `json:"periods_per_stream"`
	// SeedSeconds is the wall time of the seed phase (create + feed +
	// drain), for context only.
	SeedSeconds float64 `json:"seed_seconds"`
	// RestoreSeconds is the wall time of RestoreFromDir on the cold
	// store — the restart cost that must stay O(index scan), not
	// O(total state).
	RestoreSeconds  float64 `json:"restore_seconds"`
	RestoredStreams int     `json:"restored_streams"`
	// HydratedAfterRestore counts streams with learner state paged in
	// right after the restore scan; the lazy-hydration contract pins
	// it at zero.
	HydratedAfterRestore int `json:"hydrated_after_restore"`
	// FirstIngest is the per-active-stream latency from the first
	// ingest POST to the new period being visible in /stats — the
	// client-observed hydration + learning cost.
	FirstIngest Latency `json:"first_ingest"`
	// HydratedAfterActive counts hydrated streams after the active
	// subset was driven; the contract pins it at exactly Active.
	HydratedAfterActive int      `json:"hydrated_after_active"`
	Violations          []string `json:"violations,omitempty"`
}

// Violated reports whether the scenario broke a hydration contract.
func (r RestartReport) Violated() bool { return len(r.Violations) > 0 }

// Format renders the human-readable restart report.
func (r RestartReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bbload restart report: %d streams (%d active), %d periods each\n",
		r.Streams, r.Active, r.Periods)
	fmt.Fprintf(&sb, "seed %0.2fs  restore %s (%d streams)  hydrated after restore: %d, after active: %d\n",
		r.SeedSeconds, fmtSec(r.RestoreSeconds), r.RestoredStreams,
		r.HydratedAfterRestore, r.HydratedAfterActive)
	fmt.Fprintf(&sb, "first ingest: p50 %s p95 %s max %s mean %s\n",
		fmtSec(r.FirstIngest.P50), fmtSec(r.FirstIngest.P95),
		fmtSec(r.FirstIngest.Max), fmtSec(r.FirstIngest.Mean))
	formatTail(&sb, nil, r.Violations, "restart: ok\n", "RESTART VIOLATION")
	return sb.String()
}

func restartStreamID(i int) string { return fmt.Sprintf("restart-%05d", i) }

// seedWorkers bounds the concurrent seeding goroutines.
const seedWorkers = 32

// RunRestart executes the cold-restart scenario. Both servers it boots
// are shut down on every return path.
func RunRestart(ctx context.Context, cfg RestartConfig) (RestartReport, error) {
	if cfg.Dir == "" {
		return RestartReport{}, fmt.Errorf("load: restart scenario needs a store dir")
	}
	if cfg.Streams <= 0 {
		cfg.Streams = 1000
	}
	if cfg.Active <= 0 {
		cfg.Active = 10
	}
	if cfg.Active > cfg.Streams {
		cfg.Active = cfg.Streams
	}
	if cfg.Periods <= 0 {
		cfg.Periods = 3
	}
	rep := RestartReport{Streams: cfg.Streams, Active: cfg.Active, Periods: cfg.Periods}

	// Phase 1: seed. Every period is WAL-durable on consume, so a
	// drained shutdown checkpoints the whole fleet with no explicit
	// checkpoint calls.
	sv := serve.New(serve.Config{CheckpointDir: cfg.Dir, QueueDepth: cfg.QueueDepth})
	tgt := inproc(sv.Handler())
	seed := []byte(renderBatch(0, cfg.Periods, false, 0))
	t0 := time.Now()
	err := fanOut(ctx, cfg.Streams, seedWorkers, func(i int) error {
		id := restartStreamID(i)
		if err := tgt.create(ctx, serve.CreateStreamRequest{ID: id}); err != nil {
			return err
		}
		if o := tgt.post(ctx, id, seed, nil); o.kind != accepted {
			return fmt.Errorf("load: seed %s", o.failure(id))
		}
		return nil
	})
	if err != nil {
		_ = sv.Shutdown(context.WithoutCancel(ctx)) // the seed error is the one to report
		return rep, err
	}
	if err := sv.Shutdown(ctx); err != nil {
		return rep, fmt.Errorf("load: seed shutdown: %w", err)
	}
	rep.SeedSeconds = time.Since(t0).Seconds()

	// Phase 2: cold restart. RestoreFromDir is an index scan; nothing
	// hydrates until touched.
	sv2 := serve.New(serve.Config{CheckpointDir: cfg.Dir, QueueDepth: cfg.QueueDepth})
	defer sv2.Shutdown(context.WithoutCancel(ctx))
	t1 := time.Now()
	n, err := sv2.RestoreFromDir()
	rep.RestoreSeconds = time.Since(t1).Seconds()
	rep.RestoredStreams = n
	if err != nil {
		return rep, fmt.Errorf("load: restore: %w", err)
	}
	tgt2 := inproc(sv2.Handler())
	if rep.HydratedAfterRestore, err = countHydrated(ctx, tgt2); err != nil {
		return rep, err
	}

	// Phase 3: drive the active subset and time each stream's first
	// ingest until the learned period is visible in /stats.
	batch := []byte(renderBatch(cfg.Periods, 1, false, 0))
	samples := make([]float64, 0, cfg.Active)
	for i := 0; i < cfg.Active; i++ {
		id := restartStreamID(i)
		t := time.Now()
		if o := tgt2.post(ctx, id, batch, nil); o.kind != accepted {
			return rep, fmt.Errorf("load: first ingest %s", o.failure(id))
		}
		if err := waitPeriods(ctx, tgt2, id, cfg.Periods+1); err != nil {
			return rep, err
		}
		samples = append(samples, time.Since(t).Seconds())
	}
	rep.FirstIngest = summarize(samples)

	if rep.HydratedAfterActive, err = countHydrated(ctx, tgt2); err != nil {
		return rep, err
	}
	rep.Violations = evaluateRestart(rep)
	return rep, nil
}

// waitPeriods polls the stream's stats until the learner has consumed
// want periods.
func waitPeriods(ctx context.Context, tgt *target, id string, want int) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st serve.StatsResponse
		if err := tgt.getJSON(ctx, "/v1/streams/"+id+"/stats", &st); err != nil {
			return fmt.Errorf("load: stats %s: %w", id, err)
		}
		if st.Err != "" {
			return fmt.Errorf("load: stream %s died: %s", id, st.Err)
		}
		if st.PeriodsLearned >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("load: stream %s stuck at %d/%d periods", id, st.PeriodsLearned, want)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// countHydrated reads /debug/streams and counts paged-in streams.
func countHydrated(ctx context.Context, tgt *target) (int, error) {
	var dbg serve.DebugStreamsResponse
	if err := tgt.getJSON(ctx, "/debug/streams", &dbg); err != nil {
		return 0, fmt.Errorf("load: debug streams: %w", err)
	}
	n := 0
	for _, s := range dbg.Streams {
		if s.Hydrated {
			n++
		}
	}
	return n, nil
}

// evaluateRestart turns broken hydration contracts into violations.
func evaluateRestart(rep RestartReport) []string {
	var out []string
	if rep.RestoredStreams != rep.Streams {
		out = append(out, fmt.Sprintf("restart: restored %d of %d seeded streams",
			rep.RestoredStreams, rep.Streams))
	}
	if rep.HydratedAfterRestore != 0 {
		out = append(out, fmt.Sprintf("restart: %d streams hydrated eagerly by the restore scan",
			rep.HydratedAfterRestore))
	}
	if rep.HydratedAfterActive != rep.Active {
		out = append(out, fmt.Sprintf("restart: %d streams hydrated after driving %d",
			rep.HydratedAfterActive, rep.Active))
	}
	return out
}
