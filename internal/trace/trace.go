// Package trace models timestamped execution traces of periodic
// black-box real-time systems, as logged from a shared communication
// bus (Section 2.1 of Feng et al., DATE 2007).
//
// A trace is a sequence of events: the start or end of a task, or the
// rising or falling edge of a message transmitted on the bus. The bus
// reveals neither the sender nor the receiver of a message. Events are
// grouped into periods; the model of computation guarantees that
//
//   - every task executes at most once per period,
//   - no message crosses a period boundary, and
//   - for any ordered (sender, receiver) pair there is at most one
//     message between them per period.
//
// Times are int64 ticks; the package is agnostic about the unit
// (simulators in this repository use microseconds).
//
// One assembler, LineReader, turns events into periods for every
// front end: the text reader Read, the event-slice assembler FromEvents
// (and through it the simulator) and the served parser in
// internal/serve. They therefore accept one grammar. The task set comes
// first (the text format's "tasks" header, or the constructor's
// argument); a later "tasks" line must repeat it and is a no-op. Each
// directive stands for at most two events, which pair up start/end and
// rise/fall in feed order. A period mark cuts the open period: it fails
// with ErrCrossingPeriod while a pair is open, and the period must then
// pass Validate's per-period checks. Validation errors wrap the
// sentinels below.
package trace

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Kind enumerates the event kinds observable on the bus log.
type Kind uint8

// Event kinds. PeriodMark is a synthetic event injected by the logging
// device (or the trace segmenter) at each period boundary.
const (
	TaskStart Kind = iota
	TaskEnd
	MsgRise
	MsgFall
	PeriodMark
)

// String returns the lowercase keyword used in the text trace format.
func (k Kind) String() string {
	switch k {
	case TaskStart:
		return "start"
	case TaskEnd:
		return "end"
	case MsgRise:
		return "rise"
	case MsgFall:
		return "fall"
	case PeriodMark:
		return "period"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is a single timestamped observation. Name is a task name for
// TaskStart/TaskEnd, a message occurrence label for MsgRise/MsgFall,
// and ignored for PeriodMark.
type Event struct {
	Time int64
	Kind Kind
	Name string
}

// Interval is a closed time interval [Start, End].
type Interval struct {
	Start, End int64
}

// Contains reports whether t lies within the interval.
func (iv Interval) Contains(t int64) bool { return iv.Start <= t && t <= iv.End }

// Duration returns End - Start.
func (iv Interval) Duration() int64 { return iv.End - iv.Start }

// Message is one message occurrence on the bus: the transmission
// occupies [Rise, Fall].
type Message struct {
	ID   string
	Rise int64
	Fall int64
}

// Period is one instance of the system's execution period: the tasks
// that executed (with their execution intervals) and the message
// occurrences on the bus, in rising-edge order (ties by falling edge,
// then ID).
type Period struct {
	Index int
	Execs map[string]Interval
	Msgs  []Message
}

// Executed reports whether task ran in this period.
func (p *Period) Executed(task string) bool {
	_, ok := p.Execs[task]
	return ok
}

// ExecutedTasks returns the names of the tasks that ran in this
// period, sorted lexicographically.
func (p *Period) ExecutedTasks() []string {
	out := make([]string, 0, len(p.Execs))
	for t := range p.Execs {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Span returns the interval covering all events of the period, or the
// zero interval if the period is empty.
func (p *Period) Span() Interval {
	first := true
	var span Interval
	grow := func(lo, hi int64) {
		if first {
			span = Interval{lo, hi}
			first = false
			return
		}
		if lo < span.Start {
			span.Start = lo
		}
		if hi > span.End {
			span.End = hi
		}
	}
	for _, iv := range p.Execs {
		grow(iv.Start, iv.End)
	}
	for _, m := range p.Msgs {
		grow(m.Rise, m.Fall)
	}
	return span
}

// Clone returns a deep copy of the period.
func (p *Period) Clone() *Period {
	cp := &Period{Index: p.Index, Execs: make(map[string]Interval, len(p.Execs))}
	for t, iv := range p.Execs {
		cp.Execs[t] = iv
	}
	cp.Msgs = append([]Message(nil), p.Msgs...)
	return cp
}

// Trace is an execution trace: the predefined task set T plus the
// observed periods. In the learning problem each period is one
// instance (Definition 1); their order is irrelevant to the learner
// but preserved here.
type Trace struct {
	Tasks   []string
	Periods []*Period
}

// New returns an empty trace over the given predefined task set.
func New(tasks []string) *Trace {
	return &Trace{Tasks: append([]string(nil), tasks...)}
}

// HasTask reports whether name belongs to the predefined task set.
func (tr *Trace) HasTask(name string) bool {
	for _, t := range tr.Tasks {
		if t == name {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the trace.
func (tr *Trace) Clone() *Trace {
	cp := New(tr.Tasks)
	for _, p := range tr.Periods {
		cp.Periods = append(cp.Periods, p.Clone())
	}
	return cp
}

// Slice returns a shallow trace containing only periods [lo, hi).
func (tr *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 {
		lo = 0
	}
	if hi > len(tr.Periods) {
		hi = len(tr.Periods)
	}
	if lo > hi {
		lo = hi
	}
	return &Trace{Tasks: tr.Tasks, Periods: tr.Periods[lo:hi]}
}

// Stats summarizes a trace with the quantities reported in the paper's
// case study: period count, message occurrences and "event pairs"
// (task executions plus message transmissions, each contributing one
// start/end or rise/fall pair).
type Stats struct {
	Periods        int
	TaskExecutions int
	Messages       int
	EventPairs     int
}

// Stats computes summary statistics for the trace.
func (tr *Trace) Stats() Stats {
	var s Stats
	s.Periods = len(tr.Periods)
	for _, p := range tr.Periods {
		s.TaskExecutions += len(p.Execs)
		s.Messages += len(p.Msgs)
	}
	s.EventPairs = s.TaskExecutions + s.Messages
	return s
}

// Validation errors.
var (
	ErrTruncatedEvent  = errors.New("trace: truncated event line (missing fields)")
	ErrBadTimestamp    = errors.New("trace: unparsable timestamp field")
	ErrUnknownTask     = errors.New("trace: event names task outside the predefined task set")
	ErrDuplicateExec   = errors.New("trace: task executed more than once in a period")
	ErrUnmatchedEvent  = errors.New("trace: unmatched start/end or rise/fall event")
	ErrInvertedEvent   = errors.New("trace: end before start or fall before rise")
	ErrCrossingPeriod  = errors.New("trace: event pair crosses a period boundary")
	ErrDuplicateMsgID  = errors.New("trace: duplicate message occurrence label in a period")
	ErrUnsortedPeriods = errors.New("trace: periods overlap or are out of order")
	ErrBadTasks        = errors.New("trace: missing, mismatched or malformed tasks declaration")
	ErrUnknownEvent    = errors.New("trace: unknown directive or event kind")
)

// Validate checks the structural invariants of the model of
// computation: known task names, at most one execution per task per
// period, well-formed intervals and rise-ordered messages with unique
// labels per period, and non-empty periods in time order without
// overlap.
func (tr *Trace) Validate() error {
	prevEnd := int64(-1 << 62)
	for _, p := range tr.Periods {
		span := p.Span()
		if len(p.Execs)+len(p.Msgs) > 0 {
			if span.Start < prevEnd {
				return fmt.Errorf("%w: period %d starts at %d before previous period ends at %d",
					ErrUnsortedPeriods, p.Index, span.Start, prevEnd)
			}
			prevEnd = span.End
		}
	}
	known := make(map[string]bool, len(tr.Tasks))
	for _, t := range tr.Tasks {
		known[t] = true
	}
	for _, p := range tr.Periods {
		if err := validateOnePeriod(p, known); err != nil {
			return err
		}
	}
	return nil
}

// validateOnePeriod runs the per-period structural checks of Validate
// on one period, against the known task-name set. LineReader runs it
// on each period as it is cut.
func validateOnePeriod(p *Period, known map[string]bool) error {
	for t, iv := range p.Execs {
		if !known[t] {
			return fmt.Errorf("%w: %q in period %d", ErrUnknownTask, t, p.Index)
		}
		if iv.End < iv.Start {
			return fmt.Errorf("%w: task %q in period %d has interval [%d, %d]",
				ErrInvertedEvent, t, p.Index, iv.Start, iv.End)
		}
	}
	seen := make(map[string]bool, len(p.Msgs))
	prevRise := int64(-1 << 62)
	for _, m := range p.Msgs {
		if m.Fall < m.Rise {
			return fmt.Errorf("%w: message %q in period %d has [%d, %d]",
				ErrInvertedEvent, m.ID, p.Index, m.Rise, m.Fall)
		}
		if seen[m.ID] {
			return fmt.Errorf("%w: %q in period %d", ErrDuplicateMsgID, m.ID, p.Index)
		}
		seen[m.ID] = true
		if m.Rise < prevRise {
			return fmt.Errorf("trace: messages in period %d not in rise order", p.Index)
		}
		prevRise = m.Rise
	}
	return nil
}

// FromEvents assembles a trace from a raw event stream over the given
// task set. Events are sorted by time (stably, so the original order
// breaks ties) and fed to a LineReader, so each PeriodMark cuts a
// period; events before the first mark form the first period. The sort
// leaves every period ending no later than the next one starts, so the
// result passes Validate.
func FromEvents(tasks []string, events []Event) (*Trace, error) {
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	lr, err := NewLineReader(tasks)
	if err != nil {
		return nil, err
	}
	tr := New(tasks)
	for _, ev := range append(evs, Event{Kind: PeriodMark}) { // the last mark flushes
		p, err := lr.Event(ev)
		if err != nil {
			return nil, err
		}
		if p != nil {
			tr.Periods = append(tr.Periods, p)
		}
	}
	return tr, nil
}

// FromEventsPeriodic assembles a trace from an unmarked event stream by
// segmenting it into fixed-length periods of duration periodLen
// starting at time origin. Every event pair must fall entirely within
// one period.
func FromEventsPeriodic(tasks []string, events []Event, origin, periodLen int64) (*Trace, error) {
	if periodLen <= 0 {
		return nil, fmt.Errorf("trace: period length must be positive, got %d", periodLen)
	}
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].Time < evs[j].Time })
	var marked []Event
	nextBoundary := origin
	for _, ev := range evs {
		if ev.Kind == PeriodMark {
			continue // recompute marks from the grid
		}
		for ev.Time >= nextBoundary {
			marked = append(marked, Event{Time: nextBoundary, Kind: PeriodMark})
			nextBoundary += periodLen
		}
		marked = append(marked, ev)
	}
	return FromEvents(tasks, marked)
}

// Events flattens the trace back into a time-sorted event stream with
// PeriodMark events at each period boundary (including before the
// first period). Events at the same time keep period order, and within
// a period the mark comes first and starts/rises precede ends/falls,
// so FromEvents reassembles a valid trace exactly, even when a period
// begins at the instant the previous one ends or holds a zero-length
// execution or message.
func (tr *Trace) Events() []Event {
	var out []Event
	for _, p := range tr.Periods {
		lo := len(out)
		out = append(out, Event{Time: p.Span().Start, Kind: PeriodMark})
		for t, iv := range p.Execs {
			out = append(out, Event{Time: iv.Start, Kind: TaskStart, Name: t})
			out = append(out, Event{Time: iv.End, Kind: TaskEnd, Name: t})
		}
		for _, m := range p.Msgs {
			out = append(out, Event{Time: m.Rise, Kind: MsgRise, Name: m.ID})
			out = append(out, Event{Time: m.Fall, Kind: MsgFall, Name: m.ID})
		}
		pe := out[lo:]
		sort.SliceStable(pe, func(i, j int) bool {
			if pe[i].Time != pe[j].Time {
				return pe[i].Time < pe[j].Time
			}
			return eventRank(pe[i]) < eventRank(pe[j])
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Time < out[j].Time })
	return out
}

// eventRank orders the events of one period at the same time: the
// period mark, then starts/rises, then ends/falls.
func eventRank(ev Event) int {
	switch ev.Kind {
	case PeriodMark:
		return 0
	case TaskStart, MsgRise:
		return 1
	default:
		return 2
	}
}

// sortMessages puts a period's messages in rise order, breaking ties
// by fall and then ID, so the order depends only on the period's
// content and not on the order its events arrived in.
func sortMessages(msgs []Message) {
	slices.SortFunc(msgs, func(a, b Message) int {
		return cmp.Or(cmp.Compare(a.Rise, b.Rise), cmp.Compare(a.Fall, b.Fall), strings.Compare(a.ID, b.ID))
	})
}

// Builder incrementally constructs a trace period by period. It is the
// convenient front end used by tests, examples and the simulator.
type Builder struct {
	tr  *Trace
	cur *Period
	err error
}

// NewBuilder returns a Builder over the given task set.
func NewBuilder(tasks []string) *Builder {
	return &Builder{tr: New(tasks)}
}

// StartPeriod begins a new period; any open period is closed first.
func (b *Builder) StartPeriod() *Builder {
	b.closePeriod()
	b.cur = &Period{Index: len(b.tr.Periods), Execs: map[string]Interval{}}
	return b
}

func (b *Builder) closePeriod() {
	if b.cur != nil {
		sortMessages(b.cur.Msgs)
		b.tr.Periods = append(b.tr.Periods, b.cur)
		b.cur = nil
	}
}

// Exec records an execution of task over [start, end] in the current
// period.
func (b *Builder) Exec(task string, start, end int64) *Builder {
	if b.err != nil {
		return b
	}
	if b.cur == nil {
		b.StartPeriod()
	}
	if !b.tr.HasTask(task) {
		b.err = fmt.Errorf("%w: %q", ErrUnknownTask, task)
		return b
	}
	if _, dup := b.cur.Execs[task]; dup {
		b.err = fmt.Errorf("%w: %q in period %d", ErrDuplicateExec, task, b.cur.Index)
		return b
	}
	b.cur.Execs[task] = Interval{Start: start, End: end}
	return b
}

// Msg records a message occurrence with transmission interval
// [rise, fall] in the current period.
func (b *Builder) Msg(id string, rise, fall int64) *Builder {
	if b.err != nil {
		return b
	}
	if b.cur == nil {
		b.StartPeriod()
	}
	b.cur.Msgs = append(b.cur.Msgs, Message{ID: id, Rise: rise, Fall: fall})
	return b
}

// Build closes the current period, validates and returns the trace.
func (b *Builder) Build() (*Trace, error) {
	if b.err != nil {
		return nil, b.err
	}
	b.closePeriod()
	if err := b.tr.Validate(); err != nil {
		return nil, err
	}
	return b.tr, nil
}

// MustBuild is Build for tests and examples with known-good input; it
// panics on error.
func (b *Builder) MustBuild() *Trace {
	tr, err := b.Build()
	if err != nil {
		panic(err)
	}
	return tr
}
