package serve

import (
	"errors"
	"fmt"

	"github.com/blackbox-rt/modelgen/internal/learner"
)

// Checkpoint handoff: the serve-level primitives a cluster router
// builds stream migration on. ExportStream drains a stream's ingest
// queue, snapshots its learner and drift monitor at the resulting
// period boundary, and removes the stream (including its durable
// state); ImportStream rebuilds the identical stream on another
// server from the exported envelope via learner.RestoreOnline.
//
// The drain-before-handoff contract: because the snapshot is taken on
// the owner goroutine through the same request channel as queries, it
// observes every period whose ingest was acknowledged before the
// export began — a migrated stream never loses an acked period, and a
// restored-and-replayed learner is bit-identical to one that never
// moved (TestSnapshotDuringIngest pins exactly this). Callers must
// stop routing new writes to the stream before exporting; the cluster
// layer does so by fencing the stream's epoch at the router.

// ErrNoStream reports an export of a stream this server does not own.
var ErrNoStream = errors.New("serve: no such stream")

// ErrStreamExists reports an import colliding with a stream this
// server already owns (the same sentinel create collisions map to
// 409 through).
var ErrStreamExists = errStreamExists

// ExportStream drains the stream's queue, captures its checkpoint
// envelope (the same schema bases use on disk), and removes the
// stream from this server — owner goroutine stopped, metrics
// unregistered, durable state deleted. It returns the envelope bytes
// and the stream's learned-period count (which can exceed the
// snapshot's own period count across drift generation forks).
//
// On a snapshot failure (dead learner, failed hydration) the stream
// is left in place untouched and the error returned, so a failed
// handoff never strands state.
func (sv *Server) ExportStream(id string) ([]byte, int, error) {
	// Unpublish first: once the export begins, ingest and queries must
	// not find the stream, or a post-drain period could slip between
	// the snapshot and the removal.
	s := sv.unpublish(id)
	if s == nil {
		return nil, 0, fmt.Errorf("serve: export %q: %w", id, ErrNoStream)
	}
	// A request that found the stream before unpublish may still be
	// ingesting. Holding the feed until it is closed orders every such
	// batch: it was queued before the checkpoint (which drains it into
	// the envelope), or it is refused whole with ErrStreamClosed. So a
	// 202 always lands in the envelope and a 410 means nothing was
	// applied.
	s.feedMu.Lock()
	defer s.feedMu.Unlock()
	var body []byte
	var learned int
	var snapErr error
	err := s.do(func(o *learner.Online) {
		if o == nil {
			snapErr = s.deadErr()
			return
		}
		body, snapErr = s.checkpoint()
		learned = s.learned
	})
	if err == nil && snapErr != nil {
		err = snapErr
	}
	if err != nil {
		// Republish: the stream stays here, alive or sticky-dead.
		sv.mu.Lock()
		sv.publishLocked(s)
		sv.mu.Unlock()
		return nil, 0, fmt.Errorf("serve: export %q: %w", id, err)
	}
	// The envelope is safe; the importer owns the state from here on.
	s.feedClosed = true
	sv.retire(s)
	return body, learned, nil
}

// ImportStream rebuilds a stream from an ExportStream envelope:
// learner restored bit-identically (learner.RestoreOnline), drift
// monitor continued from the envelope's state, durable store entry
// created fresh on this server with the envelope as its base. learned
// is the stream's learned-period count from the exporter. It fails
// with errStreamExists if this server already owns the stream ID.
func (sv *Server) ImportStream(envelope []byte, learned int) (StreamInfo, error) {
	cf, err := decodeCheckpoint(envelope)
	if err != nil {
		return StreamInfo{}, fmt.Errorf("serve: import: %w", err)
	}
	if err := validateID(cf.Info.ID); err != nil {
		return StreamInfo{}, fmt.Errorf("serve: import: %w", err)
	}
	if learned < cf.Snapshot.Stats.Periods {
		learned = cf.Snapshot.Stats.Periods
	}
	s, err := sv.addStream(cf.Info, cf, learned, envelope)
	if err != nil {
		return StreamInfo{}, err
	}
	return s.info, nil
}

// StreamExists reports whether this server currently owns the stream.
func (sv *Server) StreamExists(id string) bool {
	_, ok := sv.stream(id)
	return ok
}
