package learner

import (
	"fmt"

	"github.com/blackbox-rt/modelgen/internal/engine"
)

// DeltaVersion is the per-period incremental checkpoint schema
// version (the WAL-record payload of internal/store consumers). Version
// 2 carries working-set literals as packed-word encodings; ApplyDelta
// rejects every other version.
const DeltaVersion = 2

// Delta is the serializable change record of exactly one consumed
// period: the engine's period delta (history flips, working-set edit
// script, counter snapshot) plus the retained-ring append. Appending
// a Delta per period to a write-ahead log and replaying the log onto
// a restored session reproduces the original session bit-identically,
// at a steady-state cost of O(change) — an unchanged working set
// serializes as a flag, not a model copy.
//
// Like Snapshot, a Delta carries no runtime options and no provenance
// chains; the session applying it supplies those.
type Delta struct {
	Version int `json:"version"`
	engine.PeriodDelta
	// Retained is the period appended to the verification ring, set
	// exactly when the session retains periods (RetainPeriods > 0).
	Retained *SnapshotPeriod `json:"retained,omitempty"`
}

// PeriodDelta captures the change record of the single period added
// since the last capture point (session start, restore, Snapshot or
// the previous PeriodDelta). Call it after every AddPeriod; skipping
// periods fails with engine.ErrDeltaSpan and the caller must take a
// full Snapshot instead.
func (o *Online) PeriodDelta() (*Delta, error) {
	if o.err != nil {
		return nil, fmt.Errorf("learner: delta of a dead session: %w", o.err)
	}
	pd, err := o.eng.PeriodDelta()
	if err != nil {
		return nil, fmt.Errorf("learner: %w", err)
	}
	d := &Delta{Version: DeltaVersion, PeriodDelta: *pd}
	if o.opt.RetainPeriods > 0 && len(o.retained) > 0 {
		// The most recently written ring slot holds this period's
		// retained copy.
		last := len(o.retained) - 1
		if len(o.retained) == o.opt.RetainPeriods {
			last = (o.next - 1 + o.opt.RetainPeriods) % o.opt.RetainPeriods
		}
		sp := snapshotPeriod(o.retained[last])
		d.Retained = &sp
	}
	return d, nil
}

// ApplyDelta advances the session by one captured period without
// reprocessing it: the working set, history, stats and retained ring
// end up bit-identical to the session the delta was captured from, so
// subsequent AddPeriod calls (and further delta captures) continue
// exactly as the original would have.
func (o *Online) ApplyDelta(d *Delta) error {
	if o.err != nil {
		return fmt.Errorf("learner: apply delta to a dead session: %w", o.err)
	}
	if d.Version != DeltaVersion {
		return fmt.Errorf("learner: delta version %d, this binary applies %d", d.Version, DeltaVersion)
	}
	if (d.Retained != nil) != (o.opt.RetainPeriods > 0) {
		if d.Retained == nil {
			return fmt.Errorf("learner: delta for period %d carries no retained period, session retains %d",
				d.Periods, o.opt.RetainPeriods)
		}
		return fmt.Errorf("learner: delta for period %d carries a retained period, session retains none", d.Periods)
	}
	if err := o.eng.ApplyPeriodDelta(&d.PeriodDelta); err != nil {
		return fmt.Errorf("learner: %w", err)
	}
	if d.Retained != nil {
		p := d.Retained.period()
		if len(o.retained) < o.opt.RetainPeriods {
			o.retained = append(o.retained, p)
		} else {
			o.retained[o.next] = p
			o.next = (o.next + 1) % o.opt.RetainPeriods
		}
	}
	return nil
}
