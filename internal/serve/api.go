package serve

import (
	"fmt"
	"regexp"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/drift"
	"github.com/blackbox-rt/modelgen/internal/engine"
	"github.com/blackbox-rt/modelgen/internal/learner"
)

// Wire types of the HTTP API. Everything is plain JSON over the
// standard library; the service adds no dependencies.

// LearnOptions is the client-settable subset of learner.Options.
// Algorithmic fields become part of the stream's checkpoints;
// VerifyResults and Provenance are runtime knobs and may differ across
// restarts of the same stream.
type LearnOptions struct {
	Bound          int   `json:"bound,omitempty"`
	MaxHypotheses  int   `json:"max_hypotheses,omitempty"`
	VerifyResults  bool  `json:"verify_results,omitempty"`
	RetainPeriods  int   `json:"retain_periods,omitempty"`
	Provenance     bool  `json:"provenance,omitempty"`
	SenderWindow   int64 `json:"sender_window,omitempty"`
	ReceiverWindow int64 `json:"receiver_window,omitempty"`
	MaxSenders     int   `json:"max_senders,omitempty"`
	MaxReceivers   int   `json:"max_receivers,omitempty"`
}

func (lo LearnOptions) options() learner.Options {
	return learner.Options{
		Bound:         lo.Bound,
		MaxHypotheses: lo.MaxHypotheses,
		VerifyResults: lo.VerifyResults,
		RetainPeriods: lo.RetainPeriods,
		Provenance:    lo.Provenance,
		Policy: depfunc.CandidatePolicy{
			SenderWindow:   lo.SenderWindow,
			ReceiverWindow: lo.ReceiverWindow,
			MaxSenders:     lo.MaxSenders,
			MaxReceivers:   lo.MaxReceivers,
		},
	}
}

// algorithmic returns lo without its runtime knobs: the fields a
// learner snapshot carries.
func (lo LearnOptions) algorithmic() LearnOptions {
	lo.VerifyResults, lo.Provenance = false, false
	return lo
}

// snapshotOptions returns the algorithmic options a learner snapshot
// restores with, in wire form.
func snapshotOptions(s *learner.Snapshot) LearnOptions {
	return LearnOptions{
		Bound:          s.Bound,
		MaxHypotheses:  s.MaxHypotheses,
		RetainPeriods:  s.RetainPeriods,
		SenderWindow:   s.SenderWindow,
		ReceiverWindow: s.ReceiverWindow,
		MaxSenders:     s.MaxSenders,
		MaxReceivers:   s.MaxReceivers,
	}
}

// CreateStreamRequest is the body of POST /v1/streams.
type CreateStreamRequest struct {
	// ID names the stream; the server generates "s1", "s2", ... when
	// empty. IDs are [A-Za-z0-9._-], at most 64 characters.
	ID string `json:"id,omitempty"`
	// Tasks is the predefined task set of the stream's trace.
	Tasks []string `json:"tasks"`
	// BitRate enables candump-format lines on this stream's feed: a
	// line starting with '(' is parsed as a CAN frame on a bus at
	// this bit rate and becomes a message rise/fall pair. Zero
	// rejects candump lines.
	BitRate int64 `json:"bit_rate,omitempty"`
	// PeriodUS, when positive, cuts periods on a fixed wall-clock
	// grid: whenever an event reaches the next multiple of PeriodUS
	// after the stream's first event, the open period is closed.
	// Explicit "period" directives still work and reset nothing.
	PeriodUS int64 `json:"period_us,omitempty"`
	// Options configures the stream's learner.
	Options LearnOptions `json:"options"`
	// Drift, when present and enabled, attaches a model-drift monitor
	// to the stream (see internal/drift).
	Drift *DriftOptions `json:"drift,omitempty"`
}

// DriftOptions is the client-settable drift-monitor configuration.
// Like the algorithmic learner options it becomes part of the
// stream's identity and is persisted in checkpoints.
type DriftOptions struct {
	// Enabled turns the monitor on; when false the remaining fields
	// are ignored and /drift answers {"enabled": false}.
	Enabled bool `json:"enabled"`
	// ConvergeAfter, Delta, Lambda and MaxArchived override the
	// drift.Config tunables; zero values select the drift defaults.
	ConvergeAfter int     `json:"converge_after,omitempty"`
	Delta         float64 `json:"delta,omitempty"`
	Lambda        float64 `json:"lambda,omitempty"`
	MaxArchived   int     `json:"max_archived,omitempty"`
}

// config maps the wire options onto a drift.Config. The candidate
// policy comes from the stream's learner options so reference
// verification measures drift, not policy skew.
func (do *DriftOptions) config(policy depfunc.CandidatePolicy) drift.Config {
	return drift.Config{
		ConvergeAfter: do.ConvergeAfter,
		Delta:         do.Delta,
		Lambda:        do.Lambda,
		MaxArchived:   do.MaxArchived,
		Policy:        policy,
	}
}

// StreamInfo is returned by create and list calls.
type StreamInfo struct {
	ID       string        `json:"id"`
	Tasks    []string      `json:"tasks"`
	BitRate  int64         `json:"bit_rate,omitempty"`
	PeriodUS int64         `json:"period_us,omitempty"`
	Options  LearnOptions  `json:"options"`
	Drift    *DriftOptions `json:"drift,omitempty"`
}

// IngestResponse is the body of a successful events POST.
type IngestResponse struct {
	// Lines is the number of feed lines consumed by this request.
	Lines int `json:"lines"`
	// Periods is the number of complete periods the request cut and
	// queued for learning.
	Periods int `json:"periods"`
	// QueueDepth is the ingest queue occupancy after the request.
	QueueDepth int `json:"queue_depth"`
}

// StatsResponse is the body of GET /v1/streams/{id}/stats.
type StatsResponse struct {
	ID string `json:"id"`
	// PeriodsLearned counts periods the learner has consumed;
	// PeriodsCut counts periods ingest has queued. The difference is
	// in flight.
	PeriodsLearned int `json:"periods_learned"`
	PeriodsCut     int `json:"periods_cut"`
	QueueDepth     int `json:"queue_depth"`
	QueueCap       int `json:"queue_cap"`
	// Shed counts events requests rejected with 429.
	Shed int64 `json:"shed"`
	// Partial reports whether the ingest parser holds an open period.
	Partial bool `json:"partial"`
	// WorkingSet is the learner's live hypothesis count.
	WorkingSet int `json:"working_set"`
	// Err is the sticky learner error of a dead stream, empty while
	// healthy.
	Err string `json:"err,omitempty"`
	// Engine is the learner's instrumentation snapshot.
	Engine engine.Stats `json:"engine"`
}

// ModelResponse is the body of GET /v1/streams/{id}/model.
type ModelResponse struct {
	ID    string   `json:"id"`
	Tasks []string `json:"tasks"`
	// Hypotheses holds the frontier D* as dependency tables, sorted
	// by ascending weight (depfunc.Table / ParseTable round trip).
	Hypotheses []string `json:"hypotheses"`
	// LUB is the pointwise least upper bound of the frontier, the
	// paper's recommended single answer.
	LUB       string `json:"lub"`
	Converged bool   `json:"converged"`
	Periods   int    `json:"periods"`
}

// DebugStreamsResponse is the body of GET /debug/streams: one JSON
// document with the operational state of every stream.
type DebugStreamsResponse struct {
	Streams []StreamDebug `json:"streams"`
}

// StreamDebug is one stream's entry in /debug/streams.
type StreamDebug struct {
	ID         string `json:"id"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	PeriodsCut int64  `json:"periods_cut"`
	// LastPeriod is the index of the last period the learner consumed.
	LastPeriod int64 `json:"last_period"`
	// LiveHyps is the learner's live hypothesis count after the last
	// period.
	LiveHyps int64 `json:"live_hypotheses"`
	Shed     int64 `json:"shed"`
	// CheckpointAgeSeconds is the age of the last successful
	// compaction; zero when the stream's WAL has never been folded
	// into a base snapshot.
	CheckpointAgeSeconds float64 `json:"checkpoint_age_seconds,omitempty"`
	Err                  string  `json:"err,omitempty"`
	// Store persistence view. Hydrated reports whether the stream's
	// learner state is paged in (false = registered cold from a
	// restore scan); WALRecords/WALBytes count period records not yet
	// folded into the base; LastCompaction is the RFC 3339 time of the
	// current base snapshot; PersistErr is the last persistence
	// failure, empty while durable state is in sync.
	Hydrated       bool   `json:"hydrated"`
	WALRecords     int    `json:"wal_records,omitempty"`
	WALBytes       int64  `json:"wal_bytes,omitempty"`
	LastCompaction string `json:"last_compaction,omitempty"`
	PersistErr     string `json:"persist_err,omitempty"`
	// Drift-monitor view (only on streams with drift enabled):
	// generation, stability streak, ambiguity ratio of the live model,
	// and the last detected change point (0 = none yet).
	Generation      int64   `json:"generation,omitempty"`
	Streak          int64   `json:"streak,omitempty"`
	AmbiguityRatio  float64 `json:"ambiguity_ratio,omitempty"`
	LastChangePoint int64   `json:"last_change_point,omitempty"`
}

// DriftResponse is the body of GET /v1/streams/{id}/drift.
type DriftResponse struct {
	ID string `json:"id"`
	// Enabled reports whether the stream carries a drift monitor.
	Enabled bool `json:"enabled"`
	// State is the full monitor snapshot, nil when Enabled is false.
	State *drift.State `json:"state,omitempty"`
}

// CompactResponse is the body of POST /v1/streams/{id}/compact: the
// stream's durable state after folding its WAL into a fresh base
// snapshot.
type CompactResponse struct {
	ID string `json:"id"`
	// Path is the new base snapshot file.
	Path string `json:"path"`
	// Periods is the number of learned periods the base covers.
	Periods int `json:"periods"`
	// WALRecords is the WAL record count after the compaction (0: the
	// log was fully folded).
	WALRecords int `json:"wal_records"`
}

// errorResponse is every non-2xx body.
type errorResponse struct {
	Error string `json:"error"`
}

var idPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

func validateID(id string) error {
	if !idPattern.MatchString(id) {
		return fmt.Errorf("serve: stream id %q must match %s", id, idPattern)
	}
	return nil
}
