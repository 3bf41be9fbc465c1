package can

import (
	"fmt"
	"strings"

	"github.com/blackbox-rt/modelgen/internal/trace"
)

// StreamConverter is the incremental form of ParseLog + LogEvents: it
// converts candump-style log lines one at a time into the trace
// layer's message edge events, so a long-running service can accept a
// live CAN feed (internal/serve multiplexes one converter per
// stream). Per-ID sequence numbering, the "0xID@seq" labeling
// convention and the non-decreasing-timestamp check all match the
// batch path exactly: feeding a whole log line by line yields the
// same events LogEvents produces.
//
// StreamConverter is not safe for concurrent use. Clone supports
// two-phase ingest: parse a batch on a clone and commit the clone
// only once the batch is accepted.
type StreamConverter struct {
	bus  *Bus
	seq  map[int]int
	last int64 // rise time of the previous frame
	has  bool  // whether any frame has been seen
}

// NewStreamConverter returns a converter for a bus at the given bit
// rate (fall edges are placed one worst-case frame duration after the
// rise, like LogEvents).
func NewStreamConverter(bitRate int64) (*StreamConverter, error) {
	bus, err := New(bitRate)
	if err != nil {
		return nil, err
	}
	return &StreamConverter{bus: bus, seq: map[int]int{}}, nil
}

// Clone returns an independent deep copy of the converter state.
func (sc *StreamConverter) Clone() *StreamConverter {
	cp := &StreamConverter{
		bus:  sc.bus, // immutable after construction
		seq:  make(map[int]int, len(sc.seq)),
		last: sc.last,
		has:  sc.has,
	}
	for id, n := range sc.seq {
		cp.seq[id] = n
	}
	return cp
}

// Line consumes one log line and returns the frame's rise and fall
// events, or nil for blank and comment lines. Errors wrap the same
// sentinels as ParseLog and leave the converter unchanged; they carry
// no line position, which the caller adds in its own numbering.
func (sc *StreamConverter) Line(s string) ([]trace.Event, error) {
	line := strings.TrimSpace(s)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil, nil
	}
	rec, err := parseLogLine(line)
	if err != nil {
		return nil, err
	}
	if sc.has && rec.Time < sc.last {
		return nil, fmt.Errorf("%w: %dµs after %dµs", ErrNonMonotoneTimestamp, rec.Time, sc.last)
	}
	sc.last = rec.Time
	sc.has = true
	label := fmt.Sprintf("0x%03X@%d", rec.ID, sc.seq[rec.ID])
	sc.seq[rec.ID]++
	return []trace.Event{
		{Time: rec.Time, Kind: trace.MsgRise, Name: label},
		{Time: rec.Time + sc.bus.FrameDuration(rec.DLC), Kind: trace.MsgFall, Name: label},
	}, nil
}
