package engine

import (
	"errors"
	"fmt"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
)

// This file is the engine half of the incremental-checkpoint path: a
// PeriodDelta captures what one ProcessPeriod call changed, priced in
// the size of the *change*, not the size of the model. The learner
// embeds it (learner.Delta) and the store appends it to a per-stream
// WAL; replaying the deltas onto a restored session reproduces the
// original state bit-identically (pinned by tests).
//
// Delta capture works against a baseline — a cheap record of the
// engine state at the previous capture point: the history vector and
// the working set's dependency-function Zobrist fingerprints (values,
// not pointers — generalization rebuilds the hypothesis objects every
// message, and relaxation mutates surviving objects in place, so
// object identity says nothing; the copied fingerprint pins the
// content as of the capture point either way). New, Restore, State
// and every successful PeriodDelta/ApplyPeriodDelta refresh the
// baseline, so the contract is simply "capture after every period".
//
// Working-set encoding. An entry of the new working set is either a
// reference to a baseline position (its fingerprint matches an unused
// baseline fingerprint — the entry survived the period with identical
// content, at most re-ordered) or a packed literal for new/changed
// entries. The common converged case — the working set
// survives the period completely unchanged, in order — collapses to
// Same=true: O(1) bytes however large the model is. Matching trusts
// the 64-bit Zobrist fingerprint the same way the engine's own
// dedup/relaxation machinery does (depfunc maintains the invariant
// fp == freshFingerprint(v)); the restore-equivalence tests pin the
// end-to-end behaviour.

// PeriodDelta is the engine-level change record of exactly one
// processed period.
type PeriodDelta struct {
	// Periods is Stats.Periods after the period was processed; apply
	// validates it continues the target session's sequence.
	Periods int `json:"period"`
	// HistSet lists the execution-violation history indices this
	// period flipped to true (the history is monotone).
	HistSet []int `json:"hist_set,omitempty"`
	// Same marks a period that left the working set untouched — same
	// hypotheses, same order. Keep and Packed are empty.
	Same bool `json:"same,omitempty"`
	// Keep is the new working set as baseline references: Keep[i] is
	// the baseline position of entry i, or -1 when the entry is the
	// next literal from Packed.
	Keep []int `json:"keep,omitempty"`
	// Packed holds the new/changed entries as base64 packed-word
	// encodings (depfunc.EncodePacked), in the order their -1 slots
	// appear in Keep. Decoding restores each matrix bit-identically.
	Packed []string `json:"packed,omitempty"`
	// Stats is the full post-period counter snapshot (fixed size).
	Stats Stats `json:"stats"`
}

// ErrDeltaSpan is returned by PeriodDelta when the engine processed
// zero or more than one period since the baseline was last refreshed;
// callers that fell behind must checkpoint with State instead.
var ErrDeltaSpan = errors.New("engine: delta must be captured after every period")

// deltaBase is the capture baseline; see the file comment.
type deltaBase struct {
	periods int
	hist    []bool
	fps     []uint64
}

// resetDeltaBase re-anchors the baseline at the current state. The
// slices are reused across periods, so a steady-state capture
// allocates nothing here.
func (e *Engine) resetDeltaBase() {
	e.base.periods = e.stats.Periods
	e.base.hist = append(e.base.hist[:0], e.hist...)
	e.base.fps = e.base.fps[:0]
	for _, h := range e.cur {
		e.base.fps = append(e.base.fps, h.D.Fingerprint())
	}
}

// PeriodDelta captures the change record of the single period
// processed since the last baseline refresh and re-anchors the
// baseline. It fails with ErrDeltaSpan when zero or multiple periods
// elapsed.
func (e *Engine) PeriodDelta() (*PeriodDelta, error) {
	if e.stats.Periods != e.base.periods+1 {
		return nil, fmt.Errorf("%w (baseline at %d periods, engine at %d)",
			ErrDeltaSpan, e.base.periods, e.stats.Periods)
	}
	d := &PeriodDelta{Periods: e.stats.Periods}
	for i, b := range e.hist {
		if b && !e.base.hist[i] {
			d.HistSet = append(d.HistSet, i)
		}
	}
	same := len(e.cur) == len(e.base.fps)
	if same {
		for i, h := range e.cur {
			if e.base.fps[i] != h.D.Fingerprint() {
				same = false
				break
			}
		}
	}
	if same {
		d.Same = true
	} else {
		// Unused baseline positions by fingerprint, FIFO per print so
		// duplicates pair up deterministically and each position is
		// referenced at most once (mirrors apply's used[] check).
		at := make(map[uint64][]int, len(e.base.fps))
		for j, fp := range e.base.fps {
			at[fp] = append(at[fp], j)
		}
		d.Keep = make([]int, len(e.cur))
		for i, h := range e.cur {
			if q := at[h.D.Fingerprint()]; len(q) > 0 {
				d.Keep[i] = q[0]
				at[h.D.Fingerprint()] = q[1:]
			} else {
				d.Keep[i] = -1
				d.Packed = append(d.Packed, h.D.EncodePacked())
			}
		}
	}
	d.Stats = e.stats
	e.resetDeltaBase()
	return d, nil
}

// ApplyPeriodDelta advances a restored session by one captured period
// without reprocessing it. The resulting state is bit-identical to
// the session the delta was captured from (same working set, history,
// stats and baseline), so capture can resume seamlessly.
func (e *Engine) ApplyPeriodDelta(d *PeriodDelta) error {
	if d.Periods != e.stats.Periods+1 {
		return fmt.Errorf("engine: delta is for period %d, session is at %d", d.Periods, e.stats.Periods)
	}
	for _, i := range d.HistSet {
		if i < 0 || i >= len(e.hist) {
			return fmt.Errorf("engine: delta history index %d outside [0,%d)", i, len(e.hist))
		}
	}
	if !d.Same {
		cur := make([]*hypothesis.Hypothesis, 0, len(d.Keep))
		used := make([]bool, len(e.cur))
		lit := 0
		for i, ref := range d.Keep {
			switch {
			case ref >= 0 && ref < len(e.cur):
				if used[ref] {
					return fmt.Errorf("engine: delta entry %d re-keeps hypothesis %d", i, ref)
				}
				used[ref] = true
				cur = append(cur, e.cur[ref])
			case ref == -1:
				if lit >= len(d.Packed) {
					return fmt.Errorf("engine: delta entry %d wants literal %d, only %d literals", i, lit, len(d.Packed))
				}
				df, err := depfunc.DecodePacked(e.ts, d.Packed[lit])
				if err != nil {
					return fmt.Errorf("engine: delta literal %d: %w", lit, err)
				}
				h := hypothesis.FromDepFunc(df)
				if e.cfg.Provenance {
					h.EnableProvenance()
				}
				cur = append(cur, h)
				lit++
			default:
				return fmt.Errorf("engine: delta entry %d references baseline position %d of %d", i, ref, len(e.cur))
			}
		}
		if lit != len(d.Packed) {
			return fmt.Errorf("engine: delta carries %d literals, working set uses %d", len(d.Packed), lit)
		}
		if len(cur) == 0 {
			return fmt.Errorf("engine: delta empties the working set")
		}
		e.cur = cur
	}
	for _, i := range d.HistSet {
		e.hist[i] = true
	}
	e.stats = d.Stats
	e.gen++
	e.resetDeltaBase()
	// The memo only vouches for periods ProcessPeriod saw.
	e.memo.reset()
	return nil
}
