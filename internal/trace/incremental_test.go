package trace

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// feedLines pushes every line of the text form through the reader and
// flushes, returning all emitted periods.
func feedLines(t *testing.T, lr *LineReader, text string) []*Period {
	t.Helper()
	var out []*Period
	for _, line := range strings.Split(text, "\n") {
		p, err := lr.Line(line)
		if err != nil {
			t.Fatalf("Line(%q): %v", line, err)
		}
		if p != nil {
			out = append(out, p)
		}
	}
	p, err := lr.Flush()
	if err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if p != nil {
		out = append(out, p)
	}
	return out
}

func randomLineTrace(r *rand.Rand, nTasks, nPeriods, maxMsgs int) *Trace {
	tasks := make([]string, nTasks)
	for i := range tasks {
		tasks[i] = "t" + string(rune('a'+i))
	}
	b := NewBuilder(tasks)
	clock := int64(0)
	for p := 0; p < nPeriods; p++ {
		b.StartPeriod()
		t0 := clock
		for _, task := range tasks {
			if r.Intn(4) == 0 {
				continue // task skips this period
			}
			d := int64(1 + r.Intn(9))
			b.Exec(task, t0, t0+d)
			t0 += d + int64(r.Intn(3))
		}
		for m := 0; m < r.Intn(maxMsgs+1); m++ {
			rise := clock + int64(r.Intn(int(t0-clock)+5))
			fall := rise + int64(1+r.Intn(4))
			b.Msg("m"+string(rune('0'+m)), rise, fall)
			if fall > t0 {
				t0 = fall
			}
		}
		clock = t0 + 1
	}
	return b.MustBuild()
}

// TestLineReaderRoundTrip: feeding Write's output line by line through
// a LineReader reproduces the batch Read result — same periods, same
// contents, including the trailing period that no "period" directive
// closes (Flush emits it).
func TestLineReaderRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	traces := []*Trace{PaperFigure2()}
	for i := 0; i < 8; i++ {
		traces = append(traces, randomLineTrace(r, 2+r.Intn(4), 1+r.Intn(6), 3))
	}
	for ti, tr := range traces {
		text := tr.String()
		want, err := ReadString(text)
		if err != nil {
			t.Fatalf("trace %d: batch re-read: %v", ti, err)
		}
		lr, err := NewLineReader(tr.Tasks)
		if err != nil {
			t.Fatal(err)
		}
		got := feedLines(t, lr, text)
		if len(got) != len(want.Periods) {
			t.Fatalf("trace %d: incremental cut %d periods, batch %d", ti, len(got), len(want.Periods))
		}
		for i, p := range got {
			w := want.Periods[i]
			if p.Index != w.Index {
				t.Errorf("trace %d period %d: index %d, want %d", ti, i, p.Index, w.Index)
			}
			if len(p.Execs) != len(w.Execs) {
				t.Fatalf("trace %d period %d: %d execs, want %d", ti, i, len(p.Execs), len(w.Execs))
			}
			for task, iv := range w.Execs {
				if p.Execs[task] != iv {
					t.Errorf("trace %d period %d: exec %q = %+v, want %+v", ti, i, task, p.Execs[task], iv)
				}
			}
			if len(p.Msgs) != len(w.Msgs) {
				t.Fatalf("trace %d period %d: %d msgs, want %d", ti, i, len(p.Msgs), len(w.Msgs))
			}
			for j, m := range w.Msgs {
				if p.Msgs[j] != m {
					t.Errorf("trace %d period %d msg %d: %+v, want %+v", ti, i, j, p.Msgs[j], m)
				}
			}
		}
		if lr.Partial() {
			t.Errorf("trace %d: reader still partial after flush", ti)
		}
	}
}

// TestLineReaderEventForms: the raw event directives (start/end,
// rise/fall) pair up incrementally exactly like Read, and a "tasks"
// echo line matching the configured set is accepted.
func TestLineReaderEventForms(t *testing.T) {
	lr, err := NewLineReader([]string{"t1", "t2"})
	if err != nil {
		t.Fatal(err)
	}
	lines := []string{
		"tasks t1 t2",
		"# comment",
		"",
		"start t1 0",
		"rise m1 3",
		"end t1 5",
		"fall m1 6",
		"start t2 7",
		"end t2 9",
	}
	for _, line := range lines {
		if p, err := lr.Line(line); err != nil || p != nil {
			t.Fatalf("Line(%q) = %v, %v; want nil, nil", line, p, err)
		}
	}
	p, err := lr.Line("period")
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("period directive did not cut")
	}
	if p.Execs["t1"] != (Interval{Start: 0, End: 5}) || p.Execs["t2"] != (Interval{Start: 7, End: 9}) {
		t.Fatalf("execs = %+v", p.Execs)
	}
	if len(p.Msgs) != 1 || p.Msgs[0] != (Message{ID: "m1", Rise: 3, Fall: 6}) {
		t.Fatalf("msgs = %+v", p.Msgs)
	}
	// Nothing pending: flush is a no-op, a second period line too.
	if p, err := lr.Flush(); err != nil || p != nil {
		t.Fatalf("empty Flush = %v, %v", p, err)
	}
}

// TestLineReaderCloneIndependence: mutating the original after Clone
// (or the clone after cloning) leaves the other side untouched — the
// property serve's two-phase ingest depends on.
func TestLineReaderCloneIndependence(t *testing.T) {
	lr, err := NewLineReader([]string{"t1", "t2"})
	if err != nil {
		t.Fatal(err)
	}
	mustLine := func(r *LineReader, s string) *Period {
		t.Helper()
		p, err := r.Line(s)
		if err != nil {
			t.Fatalf("Line(%q): %v", s, err)
		}
		return p
	}
	mustLine(lr, "start t1 0")
	mustLine(lr, "rise m1 2")

	cp := lr.Clone()
	// Finish the pair on the clone only.
	mustLine(cp, "end t1 4")
	mustLine(cp, "fall m1 5")
	if p := mustLine(cp, "period"); p == nil {
		t.Fatal("clone did not cut")
	}
	if cp.Partial() {
		t.Error("clone still partial after its cut")
	}

	// The original still has both pairs open: a cut must fail with
	// ErrCrossingPeriod, proving the clone's progress did not leak back.
	if _, err := lr.Flush(); !errors.Is(err, ErrCrossingPeriod) {
		t.Fatalf("original Flush = %v, want ErrCrossingPeriod", err)
	}
	// And it can still be completed independently with different times.
	mustLine(lr, "end t1 9")
	mustLine(lr, "fall m1 10")
	p, err := lr.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if p.Execs["t1"] != (Interval{Start: 0, End: 9}) {
		t.Fatalf("original exec = %+v after clone diverged", p.Execs["t1"])
	}
}

// TestLineReaderErrors: malformed feeds fail with the same sentinel
// errors the batch reader uses (TestReadTypedErrors runs these inputs
// through both readers), construction rejects a bad task set, and a
// fed line's error carries its position once.
func TestLineReaderErrors(t *testing.T) {
	cases := []struct {
		name  string
		lines []string
		want  error
	}{
		{"truncated exec", []string{"exec t1 0"}, ErrTruncatedEvent},
		{"bad timestamp", []string{"exec t1 zero 5"}, ErrBadTimestamp},
		{"unknown task", []string{"exec tx 0 5"}, ErrUnknownTask},
		{"duplicate exec", []string{"exec t1 0 5", "exec t1 6 9"}, ErrDuplicateExec},
		{"double start", []string{"start t1 0", "start t1 1"}, ErrUnmatchedEvent},
		{"end without start", []string{"end t1 5"}, ErrUnmatchedEvent},
		{"double rise", []string{"rise m1 0", "rise m1 1"}, ErrUnmatchedEvent},
		{"fall without rise", []string{"fall m1 5"}, ErrUnmatchedEvent},
		{"pair crosses period", []string{"start t1 0", "period"}, ErrCrossingPeriod},
		{"inverted exec", []string{"exec t1 9 5", "period"}, ErrInvertedEvent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lr, err := NewLineReader([]string{"t1", "t2"})
			if err != nil {
				t.Fatal(err)
			}
			var last error
			for _, line := range tc.lines {
				if _, last = lr.Line(line); last != nil {
					break
				}
			}
			if !errors.Is(last, tc.want) {
				t.Fatalf("feed %v: err = %v, want %v", tc.lines, last, tc.want)
			}
		})
	}

	if _, err := NewLineReader(nil); err == nil {
		t.Error("NewLineReader accepted an empty task set")
	}
	if _, err := NewLineReader([]string{"t1", "t1"}); err == nil {
		t.Error("NewLineReader accepted duplicate tasks")
	}
	lr, _ := NewLineReader([]string{"t1"})
	if _, err := lr.Line("tasks t1 t2"); !errors.Is(err, ErrBadTasks) {
		t.Errorf("mismatched tasks echo: %v", err)
	}
	if _, err := lr.Line("frobnicate t1 0"); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("unknown directive: %v", err)
	}
	lr, _ = NewLineReader([]string{"t1"})
	lr.Line("start t1 0")
	_, err := lr.Line("period")
	if want := "line 2: " + ErrCrossingPeriod.Error() + ":"; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("cut error = %v, want prefix %q", err, want)
	}
	if _, err := lr.Event(Event{Kind: PeriodMark + 1}); !errors.Is(err, ErrUnknownEvent) {
		t.Errorf("unknown event kind: %v", err)
	}
}
