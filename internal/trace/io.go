package trace

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"github.com/blackbox-rt/modelgen/internal/obs"
)

// The text trace format is line oriented:
//
//	# comment
//	tasks t1 t2 t3 t4
//	period
//	exec t1 0 10
//	msg m1 12 15
//	period
//	...
//
// The first directive is the "tasks" header: the predefined task set,
// without duplicates. A later "tasks" line must repeat it exactly and
// is then a no-op. "period" cuts the open period. "exec NAME START
// END" stands for a start and an end event, "msg ID RISE FALL" for a
// rise and a fall; the raw forms "start NAME T", "end NAME T", "rise
// ID T" and "fall ID T" stand for one event each. Events pair up in
// line order (see LineReader), and each period is validated when it is
// cut. Blank lines and '#' comments are ignored.

// Write serializes the trace in the compact text format.
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "tasks %s\n", strings.Join(tr.Tasks, " "))
	for _, p := range tr.Periods {
		fmt.Fprintln(bw, "period")
		// Emit executions in start order for readability.
		for _, t := range p.execsByStart() {
			iv := p.Execs[t]
			fmt.Fprintf(bw, "exec %s %d %d\n", t, iv.Start, iv.End)
		}
		for _, m := range p.Msgs {
			fmt.Fprintf(bw, "msg %s %d %d\n", m.ID, m.Rise, m.Fall)
		}
	}
	return bw.Flush()
}

func (p *Period) execsByStart() []string {
	names := p.ExecutedTasks()
	// Stable sort by start time; ExecutedTasks already sorted by name.
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && p.Execs[names[j]].Start < p.Execs[names[j-1]].Start; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// String renders the trace in the text format.
func (tr *Trace) String() string {
	var sb strings.Builder
	if err := Write(&sb, tr); err != nil {
		return fmt.Sprintf("trace: %v", err)
	}
	return sb.String()
}

// Read parses a trace in the text format.
func Read(r io.Reader) (*Trace, error) { return ReadObserved(r, nil) }

// ReadObserved parses like Read and reports parsing observability to
// o (stage "trace"): events_read (the events consumed) and, on
// success, periods_segmented, or malformed_lines (with the error as
// label) on a parse failure. A nil observer makes it identical to
// Read.
//
// The first directive must be the "tasks" header; every later line
// goes to a LineReader over that task set, which is then flushed.
func ReadObserved(r io.Reader, o obs.Observer) (tr *Trace, err error) {
	sp := obs.StartSpan(o, obs.PhaseTraceParse)
	defer sp.End()
	var lr *LineReader
	if o != nil {
		defer func() {
			if lr != nil {
				o.OnPipeline(obs.Pipeline{Stage: "trace", Name: "events_read", Value: lr.events})
			}
			if err != nil {
				o.OnPipeline(obs.Pipeline{Stage: "trace", Name: "malformed_lines", Value: 1, Label: err.Error()})
				return
			}
			o.OnPipeline(obs.Pipeline{Stage: "trace", Name: "periods_segmented", Value: int64(len(tr.Periods))})
		}()
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)

	var buf [2]Event
	for lineNo := 1; lr == nil && sc.Scan(); lineNo++ {
		n, tasks, err := decodeLine(sc.Text(), &buf)
		switch {
		case err != nil:
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		case tasks != nil:
			if lr, err = NewLineReader(tasks); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			lr.line = lineNo
		case n > 0:
			return nil, fmt.Errorf("line %d: %w: %q comes first", lineNo, ErrBadTasks, strings.Fields(sc.Text())[0])
		}
	}
	if lr == nil {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		return nil, fmt.Errorf("%w: missing", ErrBadTasks)
	}
	tr = New(lr.tasks)
	for sc.Scan() {
		p, err := lr.Line(sc.Text())
		if err != nil {
			return nil, err
		}
		if p != nil {
			tr.Periods = append(tr.Periods, p)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	p, err := lr.Flush()
	if err != nil {
		return nil, err
	}
	if p != nil {
		tr.Periods = append(tr.Periods, p)
	}
	return tr, nil
}

// ReadString parses a trace from a string in the text format.
func ReadString(s string) (*Trace, error) {
	return Read(strings.NewReader(s))
}
