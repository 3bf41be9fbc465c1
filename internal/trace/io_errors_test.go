package trace

import (
	"errors"
	"strings"
	"testing"
)

// readByLines reads a text trace the way a served stream does: the
// header configures a LineReader, which every later line is fed to
// before a final Flush. Input without a header first has no task set
// to configure it with.
func readByLines(in string) ([]*Period, error) {
	lines := strings.Split(in, "\n")
	for i, line := range lines {
		f := strings.Fields(line)
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if f[0] != "tasks" {
			return nil, ErrBadTasks
		}
		lr, err := NewLineReader(f[1:])
		if err != nil {
			return nil, err
		}
		var out []*Period
		for _, line := range lines[i+1:] {
			p, err := lr.Line(line)
			if err != nil {
				return nil, err
			}
			if p != nil {
				out = append(out, p)
			}
		}
		p, err := lr.Flush()
		if p != nil {
			out = append(out, p)
		}
		return out, err
	}
	return nil, ErrBadTasks
}

// Every malformed input maps to a typed sentinel so callers (and the
// fuzz targets) can assert on the failure class, not the message, and
// Read and a LineReader fed after the header agree on it.
func TestReadTypedErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{
			"truncated exec",
			"tasks t1 t2\nperiod\nexec t1 0\n",
			ErrTruncatedEvent,
		},
		{
			"truncated msg",
			"tasks t1 t2\nperiod\nmsg m1 12\n",
			ErrTruncatedEvent,
		},
		{
			"truncated raw event",
			"tasks t1 t2\nperiod\nstart t1\n",
			ErrTruncatedEvent,
		},
		{
			"bad exec timestamp",
			"tasks t1 t2\nperiod\nexec t1 zero 10\n",
			ErrBadTimestamp,
		},
		{
			"bad msg timestamp",
			"tasks t1 t2\nperiod\nmsg m1 12 1x5\n",
			ErrBadTimestamp,
		},
		{
			"bad raw timestamp",
			"tasks t1 t2\nperiod\nrise m1 later\n",
			ErrBadTimestamp,
		},
		{
			"fall without matching rise",
			"tasks t1 t2\nperiod\nexec t1 0 10\nfall m1 15\n",
			ErrUnmatchedEvent,
		},
		{
			"end without matching start",
			"tasks t1 t2\nperiod\nend t1 10\n",
			ErrUnmatchedEvent,
		},
		{
			"inverted exec interval",
			"tasks t1 t2\nperiod\nexec t1 10 0\n",
			ErrInvertedEvent,
		},
		{
			"task outside task set",
			"tasks t1 t2\nperiod\nexec t9 0 10\n",
			ErrUnknownTask,
		},
		{
			"rise left open at period end",
			"tasks t1 t2\nperiod\nexec t1 0 10\nrise m1 12\nperiod\nexec t1 0 10\n",
			ErrCrossingPeriod,
		},
		{"unknown task", "tasks t1 t2\nexec tx 0 5\n", ErrUnknownTask},
		{"duplicate exec", "tasks t1 t2\nexec t1 0 5\nexec t1 6 9\n", ErrDuplicateExec},
		{"double start", "tasks t1 t2\nstart t1 0\nstart t1 1\n", ErrUnmatchedEvent},
		{"double rise", "tasks t1 t2\nrise m1 0\nrise m1 1\n", ErrUnmatchedEvent},
		{"pair crosses period", "tasks t1 t2\nstart t1 0\nperiod\n", ErrCrossingPeriod},
		{"pair open at end of input", "tasks t1 t2\nstart t1 0\n", ErrCrossingPeriod},
		{"inverted exec before a cut", "tasks t1 t2\nexec t1 9 5\nperiod\n", ErrInvertedEvent},
		{"duplicate message ID", "tasks t1\nmsg m 1 2\nmsg m 3 4\n", ErrDuplicateMsgID},
		{"unknown directive", "tasks t1\nfrobnicate t1 0\n", ErrUnknownEvent},
		{"empty task set", "tasks\nperiod\n", ErrBadTasks},
		{"no tasks declaration", "# only a comment\n", ErrBadTasks},
		{"mismatched tasks echo", "tasks t1\ntasks t1 t2\n", ErrBadTasks},
		// Inputs on which Read and LineReader used to disagree.
		{"directive before tasks", "exec a 0 1\ntasks a\n", ErrBadTasks},
		{"duplicate task names", "tasks a a\nexec a 0 1\n", ErrBadTasks},
		{"msg while its rise is open", "tasks a\nrise m 1\nmsg m 2 3\nfall m 4\n", ErrUnmatchedEvent},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadString(tc.in); !errors.Is(err, tc.want) {
				t.Fatalf("ReadString(%q) = %v, want %v", tc.in, err, tc.want)
			}
			if _, err := readByLines(tc.in); !errors.Is(err, tc.want) {
				t.Fatalf("LineReader on %q: %v, want %v", tc.in, err, tc.want)
			}
		})
	}

	// A tasks line repeating the header is a no-op in both readers.
	echo := "tasks a\nexec a 0 1\ntasks a\nperiod\nexec a 2 3\n"
	tr, err := ReadString(echo)
	if err != nil {
		t.Fatalf("ReadString(%q): %v", echo, err)
	}
	ps, err := readByLines(echo)
	if err != nil {
		t.Fatalf("LineReader on %q: %v", echo, err)
	}
	if len(tr.Periods) != 2 || len(ps) != 2 {
		t.Fatalf("periods: Read %d, LineReader %d, want 2", len(tr.Periods), len(ps))
	}
}
