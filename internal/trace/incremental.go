package trace

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// LineReader is the package's one period assembler: it pairs start/end
// and rise/fall events, cuts a period at each PeriodMark and validates
// each period as it is cut. Read, FromEvents and internal/serve all
// feed it, so every front end accepts the same language. A period is
// emitted as soon as the event that closes it arrives, so a
// long-running service can cut periods out of a live feed without
// buffering the whole stream.
//
// The predefined task set is fixed at construction. In the text
// format it is the stream's header, so Line accepts a later "tasks"
// line only when it repeats that set exactly: recorded trace files,
// each with its own header, replay verbatim. Every other directive
// decodes into events (see Decode); a "msg" line pairs through
// rise/fall exactly like the raw "rise"/"fall" forms. Feed order is
// authoritative: per-period clock restarts are legal. A cut period
// holds its messages in (rise, fall, ID) order and has passed the
// per-period checks of Validate; empty periods are skipped.
//
// LineReader is not safe for concurrent use. Clone supports two-phase
// ingest: parse a batch on a clone, and only commit the clone as the
// new state once the batch is accepted (see internal/serve's
// backpressure path).
type LineReader struct {
	tasks     []string
	known     map[string]bool
	cur       *Period
	started   bool
	openStart map[string]int64
	openRise  map[string]int64
	line      int      // lines consumed, for error positions
	events    int64    // events consumed, for the events_read counter
	buf       [2]Event // Decode's result
}

// NewLineReader returns a LineReader over the given predefined task
// set.
func NewLineReader(tasks []string) (*LineReader, error) {
	if len(tasks) == 0 {
		return nil, fmt.Errorf("%w: empty task set", ErrBadTasks)
	}
	known := make(map[string]bool, len(tasks))
	for _, t := range tasks {
		if t == "" {
			return nil, fmt.Errorf("%w: empty task name", ErrBadTasks)
		}
		if known[t] {
			return nil, fmt.Errorf("%w: duplicate task %q", ErrBadTasks, t)
		}
		known[t] = true
	}
	return &LineReader{
		tasks:     append([]string(nil), tasks...),
		known:     known,
		cur:       &Period{Index: 0, Execs: map[string]Interval{}},
		openStart: map[string]int64{},
		openRise:  map[string]int64{},
	}, nil
}

// Tasks returns the reader's predefined task set.
func (lr *LineReader) Tasks() []string { return append([]string(nil), lr.tasks...) }

// Partial reports whether the open period has accumulated any events —
// state that a Flush (or the closing "period" line) has not yet
// emitted.
func (lr *LineReader) Partial() bool {
	return lr.started || len(lr.openStart) > 0 || len(lr.openRise) > 0
}

// Clone returns an independent deep copy of the reader state.
func (lr *LineReader) Clone() *LineReader {
	cp := *lr // tasks and known are immutable after construction
	cp.cur = lr.cur.Clone()
	cp.openStart = make(map[string]int64, len(lr.openStart))
	cp.openRise = make(map[string]int64, len(lr.openRise))
	for k, v := range lr.openStart {
		cp.openStart[k] = v
	}
	for k, v := range lr.openRise {
		cp.openRise[k] = v
	}
	return &cp
}

// Line consumes one line of the text format: Decode, then Event for
// each decoded event. It returns the completed period when the line
// closed one (a "period" directive after at least one event), and nil
// otherwise. Errors carry the line's position ("line N: ...") and
// leave the reader in an undefined state; the caller owns discarding
// it (or the clone it parsed into).
func (lr *LineReader) Line(s string) (*Period, error) {
	lr.line++
	events, err := lr.Decode(s)
	var p *Period
	for i := 0; err == nil && i < len(events); i++ {
		p, err = lr.Event(events[i])
	}
	if err != nil {
		return nil, fmt.Errorf("line %d: %w", lr.line, err)
	}
	return p, nil
}

// Decode parses one line of the text format into the events it stands
// for, without consuming them: none for a blank, comment or "tasks"
// line, a PeriodMark for "period", one event for each raw form
// ("start NAME T", "end NAME T", "rise ID T", "fall ID T") and two for
// "exec NAME START END" (start, end) and "msg ID RISE FALL" (rise,
// fall). A "tasks" line must repeat the reader's task set. The
// returned slice is overwritten by the next Decode or Line.
func (lr *LineReader) Decode(s string) ([]Event, error) {
	n, tasks, err := decodeLine(s, &lr.buf)
	if err != nil {
		return nil, err
	}
	if tasks != nil && !slices.Equal(tasks, lr.tasks) {
		return nil, fmt.Errorf("%w: stream declares %q, reader is configured for %q", ErrBadTasks, tasks, lr.tasks)
	}
	return lr.buf[:n], nil
}

// decodeLine is Decode without the task-set check: it stores the
// line's events in buf and returns how many there are, or the declared
// task set of a "tasks" line (non-nil, possibly empty).
func decodeLine(s string, buf *[2]Event) (int, []string, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return 0, nil, nil
	}
	var kinds []Kind
	switch fields[0] {
	case "tasks":
		return 0, fields[1:], nil
	case "period":
		buf[0] = Event{Kind: PeriodMark}
		return 1, nil, nil
	case "exec":
		kinds = []Kind{TaskStart, TaskEnd}
	case "msg":
		kinds = []Kind{MsgRise, MsgFall}
	case "start":
		kinds = []Kind{TaskStart}
	case "end":
		kinds = []Kind{TaskEnd}
	case "rise":
		kinds = []Kind{MsgRise}
	case "fall":
		kinds = []Kind{MsgFall}
	default:
		return 0, nil, fmt.Errorf("%w: directive %q", ErrUnknownEvent, fields[0])
	}
	if len(fields) != 2+len(kinds) {
		return 0, nil, fmt.Errorf("%w: %s wants a name and %d timestamp(s)", ErrTruncatedEvent, fields[0], len(kinds))
	}
	for i, k := range kinds {
		t, err := strconv.ParseInt(fields[2+i], 10, 64)
		if err != nil {
			return 0, nil, fmt.Errorf("%w: %q", ErrBadTimestamp, fields[2+i])
		}
		buf[i] = Event{Time: t, Kind: k, Name: fields[1]}
	}
	return len(kinds), nil, nil
}

// Event consumes one event. A PeriodMark cuts the open period and
// returns it (nil when the period is empty); every other kind opens
// or closes a task execution or a message and returns nil.
func (lr *LineReader) Event(ev Event) (*Period, error) {
	lr.events++
	switch ev.Kind {
	case PeriodMark:
		return lr.cut()
	case TaskStart:
		if !lr.known[ev.Name] {
			return nil, fmt.Errorf("%w: %q", ErrUnknownTask, ev.Name)
		}
		if _, dup := lr.cur.Execs[ev.Name]; dup {
			return nil, fmt.Errorf("%w: %q in period %d", ErrDuplicateExec, ev.Name, lr.cur.Index)
		}
		if _, open := lr.openStart[ev.Name]; open {
			return nil, fmt.Errorf("%w: double start of %q", ErrUnmatchedEvent, ev.Name)
		}
		lr.openStart[ev.Name] = ev.Time
	case TaskEnd:
		st, ok := lr.openStart[ev.Name]
		if !ok {
			return nil, fmt.Errorf("%w: end of %q without start", ErrUnmatchedEvent, ev.Name)
		}
		delete(lr.openStart, ev.Name)
		lr.cur.Execs[ev.Name] = Interval{Start: st, End: ev.Time}
	case MsgRise:
		if _, open := lr.openRise[ev.Name]; open {
			return nil, fmt.Errorf("%w: double rise of %q", ErrUnmatchedEvent, ev.Name)
		}
		lr.openRise[ev.Name] = ev.Time
	case MsgFall:
		rise, ok := lr.openRise[ev.Name]
		if !ok {
			return nil, fmt.Errorf("%w: fall of %q without rise", ErrUnmatchedEvent, ev.Name)
		}
		delete(lr.openRise, ev.Name)
		lr.cur.Msgs = append(lr.cur.Msgs, Message{ID: ev.Name, Rise: rise, Fall: ev.Time})
	default:
		return nil, fmt.Errorf("%w: kind %d", ErrUnknownEvent, ev.Kind)
	}
	lr.started = true
	return nil, nil
}

// Flush closes the open period and returns it, or nil when no events
// are pending. It fails when a task or message is still open — the
// feed ended mid-event-pair — leaving the reader unchanged so the
// caller can report and decide.
func (lr *LineReader) Flush() (*Period, error) { return lr.cut() }

func (lr *LineReader) cut() (*Period, error) {
	if len(lr.openStart) > 0 || len(lr.openRise) > 0 {
		return nil, fmt.Errorf("%w: period %d has %d open task(s) and %d open message(s)",
			ErrCrossingPeriod, lr.cur.Index, len(lr.openStart), len(lr.openRise))
	}
	if !lr.started {
		return nil, nil
	}
	p := lr.cur
	sortMessages(p.Msgs)
	if err := validateOnePeriod(p, lr.known); err != nil {
		return nil, err
	}
	lr.cur = &Period{Index: p.Index + 1, Execs: map[string]Interval{}}
	lr.started = false
	return p, nil
}
