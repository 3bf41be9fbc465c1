package learner

import (
	"bytes"
	"encoding/base64"
	"errors"
	"math/rand"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/trace"
)

// TestSnapshotRestoreEqualsContinuous: splitting an online session at
// any period boundary via Snapshot/RestoreOnline and feeding the rest
// into the restored session produces the same result as the unbroken
// batch run — for exact and bounded variants, through a full JSON
// round trip.
func TestSnapshotRestoreEqualsContinuous(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	traces := []*trace.Trace{trace.PaperFigure2()}
	for i := 0; i < 6; i++ {
		traces = append(traces, randomTrace(r, 3+r.Intn(3), 3+r.Intn(3), 3))
	}
	for ti, tr := range traces {
		for _, bound := range []int{0, 1, 4} {
			batch, err := Learn(tr, Options{Bound: bound})
			if err != nil {
				t.Fatalf("trace %d bound %d: batch: %v", ti, bound, err)
			}
			for split := 1; split < len(tr.Periods); split++ {
				o, err := NewOnline(tr.Tasks, Options{Bound: bound})
				if err != nil {
					t.Fatal(err)
				}
				for _, p := range tr.Periods[:split] {
					if err := o.AddPeriod(p); err != nil {
						t.Fatal(err)
					}
				}
				snap, err := o.Snapshot()
				if err != nil {
					t.Fatalf("trace %d bound %d split %d: snapshot: %v", ti, bound, split, err)
				}
				var buf bytes.Buffer
				if err := WriteSnapshot(&buf, snap); err != nil {
					t.Fatal(err)
				}
				decoded, err := ReadSnapshot(&buf)
				if err != nil {
					t.Fatal(err)
				}
				restored, err := RestoreOnline(decoded, Options{})
				if err != nil {
					t.Fatalf("trace %d bound %d split %d: restore: %v", ti, bound, split, err)
				}
				for _, p := range tr.Periods[split:] {
					if err := restored.AddPeriod(p); err != nil {
						t.Fatalf("trace %d bound %d split %d: resumed AddPeriod: %v", ti, bound, split, err)
					}
				}
				res, err := restored.Result()
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Hypotheses) != len(batch.Hypotheses) {
					t.Fatalf("trace %d bound %d split %d: restored %d vs batch %d hypotheses",
						ti, bound, split, len(res.Hypotheses), len(batch.Hypotheses))
				}
				for i := range res.Hypotheses {
					if !res.Hypotheses[i].Equal(batch.Hypotheses[i]) {
						t.Errorf("trace %d bound %d split %d: hypothesis %d differs", ti, bound, split, i)
					}
				}
				if res.Stats.Periods != batch.Stats.Periods {
					t.Errorf("trace %d bound %d split %d: restored Stats.Periods %d, want %d",
						ti, bound, split, res.Stats.Periods, batch.Stats.Periods)
				}
			}
		}
	}
}

// TestSnapshotMidWrapDeepCopy mirrors TestOnlineRingWraparound across
// a checkpoint: snapshotting mid-wrap must deep-copy the retained
// ring, so the original session's continued feeding (which overwrites
// ring slots) cannot corrupt the checkpoint, and the restored
// session's verification window is exactly the window at snapshot
// time.
func TestSnapshotMidWrapDeepCopy(t *testing.T) {
	tr := simFigure1Trace(t, 8, 5)
	const k = 3
	const split = 5 // > k, so the ring has wrapped at snapshot time
	o, err := NewOnline(tr.Tasks, Options{Bound: 4, VerifyResults: true, RetainPeriods: k})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Periods[:split] {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Retained) != k {
		t.Fatalf("snapshot retains %d periods, want %d", len(snap.Retained), k)
	}
	// Keep the original session running: every remaining AddPeriod
	// overwrites a ring slot the snapshot must no longer reference.
	for _, p := range tr.Periods[split:] {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	// The snapshot window is still periods split-k .. split-1, oldest
	// first, element by element.
	want := tr.Periods[split-k : split]
	for i, sp := range snap.Retained {
		w := want[i]
		if len(sp.Msgs) != len(w.Msgs) || len(sp.Execs) != len(w.Execs) {
			t.Fatalf("snapshot period %d shape differs after continued feeding", i)
		}
		for j, m := range sp.Msgs {
			if m != w.Msgs[j] {
				t.Fatalf("snapshot period %d message %d = %+v, want %+v", i, j, m, w.Msgs[j])
			}
		}
		for _, e := range sp.Execs {
			if w.Execs[e.Task] != (trace.Interval{Start: e.Start, End: e.End}) {
				t.Fatalf("snapshot period %d exec %q corrupted", i, e.Task)
			}
		}
	}

	// The restored session verifies against that window and then keeps
	// wrapping correctly: feeding the rest matches the original
	// session's final verified result.
	restored, err := RestoreOnline(snap, Options{VerifyResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if restored.RetainedPeriods() != k {
		t.Fatalf("restored ring holds %d periods, want %d", restored.RetainedPeriods(), k)
	}
	for _, p := range tr.Periods[split:] {
		if err := restored.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	origRes, origErr := o.Result()
	restRes, restErr := restored.Result()
	if (origErr == nil) != (restErr == nil) {
		t.Fatalf("Result errors diverge: original %v, restored %v", origErr, restErr)
	}
	if origErr == nil {
		if len(origRes.Hypotheses) != len(restRes.Hypotheses) {
			t.Fatalf("original %d vs restored %d hypotheses", len(origRes.Hypotheses), len(restRes.Hypotheses))
		}
		for i := range origRes.Hypotheses {
			if !origRes.Hypotheses[i].Equal(restRes.Hypotheses[i]) {
				t.Errorf("hypothesis %d differs after restore", i)
			}
		}
	}
}

// TestSnapshotVerifyUnavailableSurvivesRestore: a session without
// retention checkpoints and restores into a session that still
// returns ErrVerifyUnavailable when verification is requested — the
// sentinel semantics are part of the snapshot (RetainPeriods), not an
// accident of process lifetime.
func TestSnapshotVerifyUnavailableSurvivesRestore(t *testing.T) {
	tr := trace.PaperFigure2()
	o, err := NewOnline(tr.Tasks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Periods[:2] {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOnline(snap, Options{VerifyResults: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := restored.Result(); !errors.Is(err, ErrVerifyUnavailable) {
		t.Fatalf("restored Result = %v, want ErrVerifyUnavailable", err)
	}
	// Still alive, exactly like a native session.
	if err := restored.AddPeriod(tr.Periods[2]); err != nil {
		t.Fatalf("AddPeriod after the sentinel: %v", err)
	}
	if _, err := restored.Result(); !errors.Is(err, ErrVerifyUnavailable) {
		t.Fatalf("second restored Result = %v, want ErrVerifyUnavailable again", err)
	}
}

// TestSnapshotRejections: version and shape mismatches fail loudly.
func TestSnapshotRejections(t *testing.T) {
	tr := trace.PaperFigure2()
	o, err := NewOnline(tr.Tasks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.AddPeriod(tr.Periods[0]); err != nil {
		t.Fatal(err)
	}
	snap, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	bad := *snap
	bad.Version = SnapshotVersion + 1
	if _, err := RestoreOnline(&bad, Options{}); err == nil {
		t.Fatal("restore accepted an unknown snapshot version")
	}
	bad = *snap
	bad.History = bad.History[:len(bad.History)-1]
	if _, err := RestoreOnline(&bad, Options{}); err == nil {
		t.Fatal("restore accepted a truncated history")
	}
	bad = *snap
	bad.Version = 1
	if _, err := RestoreOnline(&bad, Options{}); err == nil {
		t.Fatal("restore accepted a version-1 snapshot")
	}
	bad = *snap
	bad.WorkingPacked = nil
	if _, err := RestoreOnline(&bad, Options{}); err == nil {
		t.Fatal("restore accepted an empty working set")
	}
	bad = *snap
	bad.WorkingPacked = append([]string(nil), snap.WorkingPacked...)
	raw, err := base64.StdEncoding.DecodeString(bad.WorkingPacked[0])
	if err != nil {
		t.Fatal(err)
	}
	bad.WorkingPacked[0] = base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0xff}, len(raw)))
	if _, err := RestoreOnline(&bad, Options{}); err == nil {
		t.Fatal("restore accepted a corrupt working_packed entry")
	}

	// A delta of another version is refused; the same delta at the
	// current version applies.
	if err := o.AddPeriod(tr.Periods[1]); err != nil {
		t.Fatal(err)
	}
	d, err := o.PeriodDelta()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOnline(snap, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v1 := *d
	v1.Version = 1
	if err := restored.ApplyDelta(&v1); err == nil {
		t.Fatal("apply accepted a version-1 delta")
	}
	if err := restored.ApplyDelta(d); err != nil {
		t.Fatalf("apply of the current-version delta: %v", err)
	}

	// A dead session refuses to checkpoint.
	dead, err := NewOnline(tr.Tasks, Options{})
	if err != nil {
		t.Fatal(err)
	}
	noPair := &trace.Period{Index: 0, Execs: map[string]trace.Interval{}, Msgs: []trace.Message{{ID: "m", Rise: 0, Fall: 1}}}
	if err := dead.AddPeriod(noPair); err == nil {
		t.Fatal("expected AddPeriod to fail on an unexplainable message")
	}
	if _, err := dead.Snapshot(); err == nil {
		t.Fatal("snapshot of a dead session succeeded")
	}
}

// TestSnapshotPackedBitIdentical: a version-2 checkpoint restores the
// working frontier bit-identically — not just behaviourally — through
// a full JSON round trip: every matrix re-encodes to the same packed
// words and carries the same incremental fingerprint as the original
// in-memory object.
func TestSnapshotPackedBitIdentical(t *testing.T) {
	tr := simFigure1Trace(t, 8, 5)
	o, err := NewOnline(tr.Tasks, Options{Bound: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Periods {
		if err := o.AddPeriod(p); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := o.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Version != SnapshotVersion {
		t.Fatalf("snapshot version %d, want %d", snap.Version, SnapshotVersion)
	}
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOnline(decoded, Options{})
	if err != nil {
		t.Fatal(err)
	}
	orig := o.eng.State()
	rest := restored.eng.State()
	if len(orig.Working) != len(rest.Working) {
		t.Fatalf("restored %d working hypotheses, want %d", len(rest.Working), len(orig.Working))
	}
	for i := range orig.Working {
		if orig.Working[i].Fingerprint() != rest.Working[i].Fingerprint() {
			t.Errorf("working %d: fingerprint %x, want %x", i, rest.Working[i].Fingerprint(), orig.Working[i].Fingerprint())
		}
		if !orig.Working[i].Equal(rest.Working[i]) {
			t.Errorf("working %d: matrices differ after restore", i)
		}
		if got, want := rest.Working[i].EncodePacked(), orig.Working[i].EncodePacked(); got != want {
			t.Errorf("working %d: packed re-encoding differs:\n got %s\nwant %s", i, got, want)
		}
	}
}
