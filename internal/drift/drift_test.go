package drift

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// stationaryPeriod is the canonical two-task period: t1 sends m1 to
// t2 (the only timing-feasible pair).
func stationaryPeriod(i int) *trace.Period {
	base := int64(i) * 1000
	return &trace.Period{
		Index: i,
		Execs: map[string]trace.Interval{
			"t1": {Start: base, End: base + 100},
			"t2": {Start: base + 400, End: base + 500},
		},
		Msgs: []trace.Message{{ID: "m1", Rise: base + 150, Fall: base + 200}},
	}
}

// flippedPeriod is the post-change regime: t1 runs alone, the message
// and t2 are gone — every such period violates a converged t1→t2
// model.
func flippedPeriod(i int) *trace.Period {
	base := int64(i) * 1000
	return &trace.Period{
		Index: i,
		Execs: map[string]trace.Interval{"t1": {Start: base, End: base + 100}},
	}
}

// session feeds an online learner's periods to a fresh monitor the
// way internal/serve does: each learned period, then the working-set
// LUB and size right after AddPeriod.
type session struct {
	o   *learner.Online
	mon *Monitor
	evs []*Event
}

func newSession(t *testing.T, cfg Config) *session {
	t.Helper()
	o, err := learner.NewOnline([]string{"t1", "t2"}, learner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &session{o: o, mon: New(cfg)}
}

func (s *session) feed(t *testing.T, ps ...*trace.Period) {
	t.Helper()
	for _, p := range ps {
		if err := s.o.AddPeriod(p); err != nil {
			t.Fatalf("period %d: %v", p.Index, err)
		}
		if ev := s.mon.Observe(p, s.o.LUB(), s.o.WorkingSetSize()); ev != nil {
			s.evs = append(s.evs, ev)
		}
	}
}

func stationary(n int) []*trace.Period {
	ps := make([]*trace.Period, n)
	for i := range ps {
		ps[i] = stationaryPeriod(i + 1)
	}
	return ps
}

func TestStationaryNeverAlarms(t *testing.T) {
	s := newSession(t, Config{})
	s.feed(t, stationary(60)...)
	if len(s.evs) != 0 {
		t.Fatalf("stationary stream raised %d alarms: %+v", len(s.evs), s.evs)
	}
	m := s.mon
	if m.Generation() != 1 || m.Alarms() != 0 {
		t.Fatalf("generation %d alarms %d, want 1/0", m.Generation(), m.Alarms())
	}
	if !m.Converged() {
		t.Fatal("monitor never froze a reference on a stable model")
	}
	// The model stabilizes after period 1, so 59 of the 60 periods
	// extend the streak.
	if m.Streak() != 59 {
		t.Fatalf("streak %d, want 59", m.Streak())
	}
	if r := m.AmbiguityRatio(); r != 0 {
		t.Fatalf("ambiguity ratio %v on an unconditional model", r)
	}
	if m.Periods() != 60 {
		t.Fatalf("periods %d, want 60", m.Periods())
	}
}

func TestFlipDetectedWithinWindow(t *testing.T) {
	const flipAt = 30 // periods 1..30 stationary, 31.. flipped
	s := newSession(t, Config{})
	s.feed(t, stationary(flipAt)...)
	for i := flipAt + 1; i <= flipAt+25; i++ {
		s.feed(t, flippedPeriod(i))
	}
	if len(s.evs) != 1 {
		t.Fatalf("got %d alarms, want exactly 1: %+v", len(s.evs), s.evs)
	}
	ev := s.evs[0]
	if ev.ChangePoint != flipAt+1 {
		t.Errorf("change point %d, want %d", ev.ChangePoint, flipAt+1)
	}
	if lag := ev.Period - (flipAt + 1); lag < 0 || lag > 20 {
		t.Errorf("detection lag %d periods (alarm at %d), want within 20 of the flip", lag, ev.Period)
	}
	if ev.Generation != 2 || s.mon.Generation() != 2 {
		t.Errorf("generation event=%d monitor=%d, want 2/2", ev.Generation, s.mon.Generation())
	}
	if ev.Archived == "" {
		t.Error("alarm archived no reference model")
	}
	arch := s.mon.Archived()
	if len(arch) != 1 || arch[0].Generation != 1 || arch[0].Table != ev.Archived {
		t.Errorf("archive = %+v", arch)
	}
	// The relaxed post-flip model is stationary again: the monitor
	// must re-converge without further alarms.
	if !s.mon.Converged() {
		t.Error("generation 2 never re-converged on the post-flip regime")
	}
	ref, err := depfunc.ParseTable(s.mon.State().Reference)
	if err != nil {
		t.Fatalf("generation-2 reference unparsable: %v", err)
	}
	if !depfunc.Match(ref, flippedPeriod(99), depfunc.CandidatePolicy{}) {
		t.Error("generation-2 reference rejects the new regime")
	}
}

func TestIsolatedFailureDoesNotAlarm(t *testing.T) {
	// One odd period after convergence: the learner relaxes, the
	// stream returns to normal. Page–Hinkley must absorb it.
	s := newSession(t, Config{})
	s.feed(t, stationary(20)...)
	s.feed(t, flippedPeriod(21))
	for i := 22; i <= 60; i++ {
		s.feed(t, stationaryPeriod(i))
	}
	if len(s.evs) != 0 {
		t.Fatalf("isolated deviation alarmed: %+v", s.evs[0])
	}
	if s.mon.Generation() != 1 {
		t.Fatalf("generation %d, want 1", s.mon.Generation())
	}
	// The deviation forced a relaxation, so the re-frozen model is
	// conditional now.
	if r := s.mon.AmbiguityRatio(); r == 0 {
		t.Error("ambiguity ratio still 0 after a forced relaxation")
	}
}

func TestForceAlarm(t *testing.T) {
	s := newSession(t, Config{})
	s.feed(t, stationary(10)...)
	ev := s.mon.ForceAlarm()
	if !ev.Forced || ev.Generation != 2 || ev.ChangePoint != 11 {
		t.Fatalf("forced event = %+v", ev)
	}
	if s.mon.Generation() != 2 || s.mon.Converged() {
		t.Fatalf("monitor after force: gen %d converged %v", s.mon.Generation(), s.mon.Converged())
	}
	if len(s.mon.Archived()) != 1 {
		t.Fatalf("archive = %+v", s.mon.Archived())
	}
}

func TestArchiveBounded(t *testing.T) {
	m := New(Config{MaxArchived: 2})
	lub := depfunc.Bottom(depfunc.MustTaskSet("t1", "t2"))
	for g := 0; g < 5; g++ {
		for i := 0; i < DefaultConvergeAfter+1; i++ {
			m.Observe(stationaryPeriod(m.Periods()+1), lub, 1)
		}
		if !m.Converged() {
			t.Fatalf("gen %d never froze", g+1)
		}
		m.ForceAlarm()
	}
	if len(m.Archived()) != 2 {
		t.Fatalf("archive holds %d models, want 2", len(m.Archived()))
	}
	if m.Archived()[1].Generation != 5 {
		t.Fatalf("newest archived generation %d, want 5", m.Archived()[1].Generation)
	}
}

// TestStateRoundTrip checkpoints the monitor at every period of a
// stationary-then-flipped run and verifies that (a) State survives a
// JSON round trip bit-identically and (b) a restored monitor observes
// the rest of the stream exactly like the original.
func TestStateRoundTrip(t *testing.T) {
	const flipAt = 25
	var periods []*trace.Period
	periods = append(periods, stationary(flipAt)...)
	for i := flipAt + 1; i <= flipAt+15; i++ {
		periods = append(periods, flippedPeriod(i))
	}

	s := newSession(t, Config{})
	var restored *Monitor
	for k, p := range periods {
		s.feed(t, p)
		st := s.mon.State()
		raw, err := json.Marshal(st)
		if err != nil {
			t.Fatalf("period %d: marshal: %v", k, err)
		}
		var back State
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("period %d: unmarshal: %v", k, err)
		}
		if !reflect.DeepEqual(st, back) {
			t.Fatalf("period %d: state changed across JSON:\n%+v\n%+v", k, st, back)
		}
		m2, err := Restore(back, Config{})
		if err != nil {
			t.Fatalf("period %d: restore: %v", k, err)
		}
		if got := m2.State(); !reflect.DeepEqual(st, got) {
			t.Fatalf("period %d: restored state differs:\n%+v\n%+v", k, st, got)
		}
		if k == flipAt+4 { // mid-detection: accumulator partly charged
			restored = m2
		}
	}

	// Drive the restored mid-detection monitor over the same tail the
	// original saw; every subsequent state must match, including the
	// alarm.
	fresh := newSession(t, Config{})
	for k, p := range periods {
		fresh.feed(t, p)
		if restored != nil && k > flipAt+4 {
			restored.Observe(p, fresh.o.LUB(), fresh.o.WorkingSetSize())
			if a, b := fresh.mon.State(), restored.State(); !reflect.DeepEqual(a, b) {
				t.Fatalf("period %d: restored monitor diverged:\n%+v\n%+v", k, a, b)
			}
		}
	}
	if restored.Generation() != 2 {
		t.Fatalf("restored monitor ended at generation %d, want 2", restored.Generation())
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	if _, err := Restore(State{Generation: 1, Fingerprint: "zz"}, Config{}); err == nil {
		t.Error("bad fingerprint accepted")
	}
	if _, err := Restore(State{Generation: 1, Reference: "not a table"}, Config{}); err == nil {
		t.Error("bad reference table accepted")
	}
	if _, err := Restore(State{Generation: 1, Converged: true}, Config{}); err == nil {
		t.Error("converged-without-reference accepted")
	}
	st := State{Generation: 1, Reference: depfunc.Bottom(depfunc.MustTaskSet("a", "b")).Table(),
		ReferenceFingerprint: "0000000000000000"}
	if _, err := Restore(st, Config{}); err == nil {
		t.Error("mismatched reference fingerprint accepted")
	}
}

func TestDefaults(t *testing.T) {
	m := New(Config{})
	cfg := m.Config()
	if cfg.ConvergeAfter != DefaultConvergeAfter || cfg.Delta != DefaultDelta ||
		cfg.Lambda != DefaultLambda || cfg.MaxArchived != DefaultMaxArchived {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	// The hard-flip ordering guarantee: the alarm horizon must be
	// shorter than the re-freeze horizon.
	if horizon := cfg.Lambda / (1 - cfg.Delta); float64(cfg.ConvergeAfter) <= horizon+1 {
		t.Fatalf("ConvergeAfter %d too close to alarm horizon %.1f", cfg.ConvergeAfter, horizon)
	}
}
