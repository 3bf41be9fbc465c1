package can

import (
	"errors"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/trace"
)

// FuzzParseLog throws arbitrary bytes at the candump-log parser:
// truncated frames, garbage timestamps, out-of-range identifiers.
// Whatever comes back must either be a typed error or a record stream
// satisfying the parser's contract — non-decreasing timestamps,
// 11-bit identifiers, payloads within the CAN maximum — and the
// resulting edge events must be well-formed rise/fall pairs.
//
// The target is differential: the same input fed line by line through
// a StreamConverter (the served candump path) must be accepted exactly
// when ParseLog accepts it and yield the events LogEvents yields. A
// rejected line must carry ParseLog's sentinel and leave the converter
// unchanged.
func FuzzParseLog(f *testing.F) {
	f.Add("(1690000000.000100) can0 123#DEADBEEF\n(1690000000.000350) can0 1A0#\n")
	f.Add("(0.0) can0 000#\n")
	f.Add("(1.0) can0 7FF#0102030405060708\n")
	f.Add("# comment\n\n(2.5) vcan0 0A0#FF\n")
	f.Add("(1.0) can0 123#0\n")           // odd digit count
	f.Add("(1.0) can0 800#00\n")          // ID out of range
	f.Add("(2.0) c 1#00\n(1.0) c 2#00\n") // clock runs backward
	f.Add("(1.0) can0 123DEAD\n")         // no separator
	f.Fuzz(func(t *testing.T, input string) {
		recs, err := ParseLog(strings.NewReader(input))
		streamed, serr := streamLog(t, input)
		if err != nil {
			if serr == nil {
				t.Fatalf("ParseLog rejected what the converter accepted: %v", err)
			}
			for _, sentinel := range sentinels {
				if errors.Is(err, sentinel) && !errors.Is(serr, sentinel) {
					t.Fatalf("converter error %v does not wrap ParseLog's sentinel %v", serr, sentinel)
				}
			}
			return
		}
		if serr != nil {
			t.Fatalf("converter rejected what ParseLog accepted: %v", serr)
		}
		for i, rec := range recs {
			if rec.ID < 0 || rec.ID > 0x7FF {
				t.Fatalf("record %d: identifier %#x out of 11-bit range", i, rec.ID)
			}
			if rec.DLC < 0 || rec.DLC > 8 {
				t.Fatalf("record %d: DLC %d out of range", i, rec.DLC)
			}
			if i > 0 && rec.Time < recs[i-1].Time {
				t.Fatalf("record %d: time %d precedes record %d's %d", i, rec.Time, i-1, recs[i-1].Time)
			}
		}
		events, err := LogEvents(recs, 500_000)
		if err != nil {
			t.Fatalf("LogEvents rejected parsed records: %v", err)
		}
		if !slices.Equal(streamed, events) {
			t.Fatalf("converter events differ from LogEvents:\n got %v\nwant %v", streamed, events)
		}
		if len(events) != 2*len(recs) {
			t.Fatalf("%d records became %d events, want %d", len(recs), len(events), 2*len(recs))
		}
		seen := map[string]bool{}
		for i := 0; i < len(events); i += 2 {
			rise, fall := events[i], events[i+1]
			if rise.Name != fall.Name {
				t.Fatalf("edge pair %d has mismatched labels %q, %q", i/2, rise.Name, fall.Name)
			}
			if fall.Time <= rise.Time {
				t.Fatalf("edge pair %d: fall %d not after rise %d", i/2, fall.Time, rise.Time)
			}
			if seen[rise.Name] {
				t.Fatalf("occurrence label %q not unique", rise.Name)
			}
			seen[rise.Name] = true
		}
	})
}

// sentinels are the typed parse errors every rejection wraps one of.
var sentinels = []error{ErrTruncatedFrame, ErrBadTimestamp, ErrNonMonotoneTimestamp, ErrBadIdentifier, ErrBadPayload}

// streamLog feeds input to a fresh converter line by line and returns
// the events up to the first rejected line, with that line's error.
// A rejected line must leave the converter unchanged.
func streamLog(t *testing.T, input string) ([]trace.Event, error) {
	sc, err := NewStreamConverter(500_000)
	if err != nil {
		t.Fatal(err)
	}
	var events []trace.Event
	for _, line := range strings.Split(input, "\n") {
		before := sc.Clone()
		evs, err := sc.Line(line)
		if err != nil {
			if !reflect.DeepEqual(sc, before) {
				t.Fatalf("rejected line %q changed the converter", line)
			}
			return events, err
		}
		events = append(events, evs...)
	}
	return events, nil
}
