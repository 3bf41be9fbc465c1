package learner

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/engine"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// SnapshotVersion is the checkpoint schema version this package
// writes and reads. Bump it when a field's meaning changes; readers
// reject versions they do not understand rather than misinterpreting
// them. Version 2 encodes the frontier as packed words
// (WorkingPacked), restored bit-identically.
const SnapshotVersion = 2

// Snapshot is a versioned, JSON-serializable checkpoint of an online
// learning session, captured at a period boundary. It holds deep
// copies of everything — the execution-violation history, the working
// hypothesis frontier, the retained-period verification ring — so the
// session it came from may keep consuming periods (overwriting ring
// slots) without disturbing the checkpoint.
//
// A restored session is algorithmically indistinguishable from the
// original: feeding the same subsequent periods produces bit-identical
// results, and ErrVerifyUnavailable semantics survive the round trip
// (RetainPeriods is part of the snapshot). Two things intentionally do
// not survive: provenance chains (a restored session starts fresh
// ones) and the Observer/Negatives/VerifyResults runtime options,
// which the caller of RestoreOnline supplies anew.
type Snapshot struct {
	Version int      `json:"version"`
	Tasks   []string `json:"tasks"`

	// Algorithmic options: a restored session must replay with the
	// same algorithm parameters or its state would be meaningless.
	Bound          int   `json:"bound,omitempty"`
	MaxHypotheses  int   `json:"max_hypotheses,omitempty"`
	RetainPeriods  int   `json:"retain_periods,omitempty"`
	SenderWindow   int64 `json:"sender_window,omitempty"`
	ReceiverWindow int64 `json:"receiver_window,omitempty"`
	MaxSenders     int   `json:"max_senders,omitempty"`
	MaxReceivers   int   `json:"max_receivers,omitempty"`

	// History is the cumulative execution-violation vector, row-major
	// over the task indices, encoded as a '0'/'1' string of length n².
	History string `json:"history"`
	// WorkingPacked holds the live hypothesis frontier as base64
	// packed-word encodings (depfunc.EncodePacked), in working-set
	// order. Decoding restores each matrix — words, fingerprint,
	// weight — bit-identically.
	WorkingPacked []string `json:"working_packed,omitempty"`
	// Stats is the engine instrumentation snapshot.
	Stats engine.Stats `json:"stats"`
	// Retained is the verification ring buffer, oldest period first.
	Retained []SnapshotPeriod `json:"retained,omitempty"`
}

// SnapshotPeriod is the explicit wire form of one retained period.
// (The trace package's JSON form validates global period ordering,
// which per-period clocks in the text format legitimately violate, so
// checkpoints carry their own schema.)
type SnapshotPeriod struct {
	Index int             `json:"index"`
	Execs []SnapshotExec  `json:"execs"`
	Msgs  []trace.Message `json:"msgs,omitempty"`
}

// SnapshotExec is one task execution of a retained period.
type SnapshotExec struct {
	Task  string `json:"task"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// Snapshot checkpoints the session. It fails on a dead session (a
// sticky AddPeriod error): the state is not a consistent prefix of the
// instance stream and must not be persisted.
func (o *Online) Snapshot() (*Snapshot, error) {
	if o.err != nil {
		return nil, fmt.Errorf("learner: snapshot of a dead session: %w", o.err)
	}
	st := o.eng.State()
	s := &Snapshot{
		Version:        SnapshotVersion,
		Tasks:          o.eng.TaskSet().Names(),
		Bound:          o.opt.Bound,
		MaxHypotheses:  o.opt.MaxHypotheses,
		RetainPeriods:  o.opt.RetainPeriods,
		SenderWindow:   o.opt.Policy.SenderWindow,
		ReceiverWindow: o.opt.Policy.ReceiverWindow,
		MaxSenders:     o.opt.Policy.MaxSenders,
		MaxReceivers:   o.opt.Policy.MaxReceivers,
		Stats:          st.Stats,
	}
	hist := make([]byte, len(st.History))
	for i, b := range st.History {
		if b {
			hist[i] = '1'
		} else {
			hist[i] = '0'
		}
	}
	s.History = string(hist)
	for _, d := range st.Working {
		s.WorkingPacked = append(s.WorkingPacked, d.EncodePacked())
	}
	// Ring contents oldest-first, deep-copied again on the way out so
	// the snapshot shares nothing with the live ring even before
	// serialization.
	if tr := o.retainedTrace(); tr != nil {
		for _, p := range tr.Periods {
			s.Retained = append(s.Retained, snapshotPeriod(p.Clone()))
		}
	}
	return s, nil
}

func snapshotPeriod(p *trace.Period) SnapshotPeriod {
	sp := SnapshotPeriod{Index: p.Index, Msgs: p.Msgs}
	names := make([]string, 0, len(p.Execs))
	for t := range p.Execs {
		names = append(names, t)
	}
	sort.Strings(names)
	sort.SliceStable(names, func(i, j int) bool {
		return p.Execs[names[i]].Start < p.Execs[names[j]].Start
	})
	for _, t := range names {
		iv := p.Execs[t]
		sp.Execs = append(sp.Execs, SnapshotExec{Task: t, Start: iv.Start, End: iv.End})
	}
	return sp
}

func (sp SnapshotPeriod) period() *trace.Period {
	p := &trace.Period{Index: sp.Index, Execs: make(map[string]trace.Interval, len(sp.Execs))}
	for _, e := range sp.Execs {
		p.Execs[e.Task] = trace.Interval{Start: e.Start, End: e.End}
	}
	p.Msgs = append(p.Msgs, sp.Msgs...)
	return p
}

// RestoreOnline rebuilds an online session from a Snapshot. The
// algorithmic options (Bound, Policy, MaxHypotheses, RetainPeriods)
// come from the snapshot; opt supplies
// only the runtime-facing knobs — Observer, Provenance, VerifyResults,
// Negatives — which may differ from the original session's without
// affecting replay determinism.
func RestoreOnline(s *Snapshot, opt Options) (*Online, error) {
	if s.Version != SnapshotVersion {
		return nil, fmt.Errorf("learner: snapshot version %d, this binary reads %d", s.Version, SnapshotVersion)
	}
	ts, err := depfunc.NewTaskSet(s.Tasks)
	if err != nil {
		return nil, fmt.Errorf("learner: snapshot: %w", err)
	}
	opt.Bound = s.Bound
	opt.MaxHypotheses = s.MaxHypotheses
	opt.RetainPeriods = s.RetainPeriods
	opt.Policy = depfunc.CandidatePolicy{
		SenderWindow:   s.SenderWindow,
		ReceiverWindow: s.ReceiverWindow,
		MaxSenders:     s.MaxSenders,
		MaxReceivers:   s.MaxReceivers,
	}

	n := ts.Len()
	if len(s.History) != n*n {
		return nil, fmt.Errorf("learner: snapshot history length %d does not fit %d tasks", len(s.History), n)
	}
	st := &engine.State{History: make([]bool, len(s.History)), Stats: s.Stats}
	for i := 0; i < len(s.History); i++ {
		switch s.History[i] {
		case '1':
			st.History[i] = true
		case '0':
		default:
			return nil, fmt.Errorf("learner: snapshot history has invalid byte %q at %d", s.History[i], i)
		}
	}
	for i, enc := range s.WorkingPacked {
		d, err := depfunc.DecodePacked(ts, enc)
		if err != nil {
			return nil, fmt.Errorf("learner: snapshot working hypothesis %d: %w", i, err)
		}
		st.Working = append(st.Working, d)
	}
	eng, err := engine.Restore(ts, opt.engineConfig(), st)
	if err != nil {
		return nil, fmt.Errorf("learner: %w", err)
	}
	o := &Online{eng: eng, opt: opt}
	if opt.RetainPeriods > 0 {
		if len(s.Retained) > opt.RetainPeriods {
			return nil, fmt.Errorf("learner: snapshot retains %d periods, ring holds %d",
				len(s.Retained), opt.RetainPeriods)
		}
		for _, sp := range s.Retained {
			o.retained = append(o.retained, sp.period())
		}
		// Oldest-first with next = 0: when the ring is full the next
		// write overwrites index 0, which is exactly the oldest entry.
	} else if len(s.Retained) > 0 {
		return nil, fmt.Errorf("learner: snapshot carries retained periods but RetainPeriods is zero")
	}
	return o, nil
}

// WriteSnapshot serializes the snapshot as indented JSON.
func WriteSnapshot(w io.Writer, s *Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a JSON snapshot (version-checked by
// RestoreOnline, not here, so callers can inspect foreign versions).
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("learner: snapshot: %w", err)
	}
	return &s, nil
}
