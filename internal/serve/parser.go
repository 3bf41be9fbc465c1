package serve

import (
	"fmt"
	"strings"

	"github.com/blackbox-rt/modelgen/internal/can"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// parser is the per-stream ingest front end: it turns raw feed lines
// into complete periods. Text-format directives are decoded by a
// trace.LineReader; lines starting with '(' are candump frames,
// converted by a can.StreamConverter into the rise/fall pair of the
// frame. Either way the events go into the same reader, so one stream
// may mix task events from an instrumented node with bus frames from
// a logger.
//
// With a positive periodUS the parser also cuts periods on a fixed
// grid anchored at the first timed event — the serving equivalent of
// slicing a capture by the system's known period.
//
// parser is owned by the ingest path under the stream's feed mutex
// and supports clone-and-commit: a request parses into a clone and
// the clone replaces the original only once the whole batch is
// accepted, which is what makes the 429 shed path atomic.
type parser struct {
	lr   *trace.LineReader
	conv *can.StreamConverter // nil unless the stream set a bit rate

	periodUS int64
	haveBase bool  // whether the grid is anchored at the first timed event
	boundary int64 // next grid cut, valid when haveBase
}

func newParser(tasks []string, bitRate, periodUS int64) (*parser, error) {
	lr, err := trace.NewLineReader(tasks)
	if err != nil {
		return nil, err
	}
	p := &parser{lr: lr, periodUS: periodUS}
	if bitRate > 0 {
		if p.conv, err = can.NewStreamConverter(bitRate); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *parser) clone() *parser {
	cp := *p
	cp.lr = p.lr.Clone()
	if p.conv != nil {
		cp.conv = p.conv.Clone()
	}
	return &cp
}

func (p *parser) partial() bool { return p.lr.Partial() }

// feed consumes one raw feed line and returns the periods it
// completed (usually zero or one; a line crossing several empty grid
// slots still cuts at most one, since empty periods are skipped).
func (p *parser) feed(line string) ([]*trace.Period, error) {
	trimmed := strings.TrimSpace(line)
	var events []trace.Event
	var err error
	if strings.HasPrefix(trimmed, "(") {
		if p.conv == nil {
			return nil, fmt.Errorf("serve: candump line on a stream created without bit_rate")
		}
		events, err = p.conv.Line(trimmed)
	} else {
		events, err = p.lr.Decode(trimmed)
	}
	if err != nil {
		return nil, err
	}
	var out []*trace.Period
	if p.periodUS > 0 && len(events) > 0 && events[0].Kind != trace.PeriodMark {
		// Cut on the line's first event only: an exec's end or a
		// frame's synthetic fall stays in the same period.
		period, err := p.gridCut(events[0].Time)
		if err != nil {
			return nil, err
		}
		if period != nil {
			out = append(out, period)
		}
	}
	for _, ev := range events {
		period, err := p.lr.Event(ev)
		if err != nil {
			return nil, err
		}
		if period != nil {
			out = append(out, period)
		}
	}
	return out, nil
}

// gridCut closes the open period when t has reached the next grid
// boundary, and advances the boundary past t.
func (p *parser) gridCut(t int64) (*trace.Period, error) {
	if !p.haveBase {
		p.haveBase = true
		p.boundary = t + p.periodUS
		return nil, nil
	}
	if t < p.boundary {
		return nil, nil
	}
	// Skip every grid slot up to t at once: a timestamp far ahead must
	// not cost one step per empty slot.
	p.boundary += int64((uint64(t-p.boundary)/uint64(p.periodUS) + 1) * uint64(p.periodUS))
	return p.lr.Flush()
}
