package trace

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzRead checks that the trace parser never panics, that a
// LineReader fed after the header accepts exactly the inputs Read
// accepts and cuts the same periods, that every accepted input
// survives a write/read round trip, and that a trace in time order
// reassembles from its event stream: FromEvents(tr.Tasks, tr.Events())
// equals tr. (Text traces whose per-period clocks restart are legal
// but not in time order, so FromEvents rejects them by design.)
func FuzzRead(f *testing.F) {
	f.Add("tasks a b\nperiod\nexec a 0 5\nmsg m1 6 7\nexec b 9 12\n")
	f.Add("tasks t1\nperiod\nstart t1 0\nend t1 4\n")
	f.Add("# comment\n\ntasks x\nperiod\n")
	f.Add("tasks a\nexec a 5 1\n")
	f.Add("period\n")
	f.Add("tasks a\nmsg m 1\n")
	// Zero-length intervals, and a period starting when the last ends.
	f.Add("tasks a\nexec a 0 0\nmsg m 5 5\nperiod\nmsg m 5 6\nexec a 6 6\n")
	// Two messages rising together.
	f.Add("tasks a\nmsg m1 5 9\nmsg m2 5 7\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ReadString(input)
		ps, lerr := readByLines(input)
		if (err == nil) != (lerr == nil) {
			t.Fatalf("Read err = %v, LineReader err = %v", err, lerr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(ps, tr.Periods) {
			t.Fatalf("LineReader cut %v, Read %v", ps, tr.Periods)
		}
		var sb strings.Builder
		if err := Write(&sb, tr); err != nil {
			t.Fatalf("accepted trace failed to serialize: %v", err)
		}
		back, err := ReadString(sb.String())
		if err != nil {
			t.Fatalf("serialized trace failed to parse: %v\n%s", err, sb.String())
		}
		if back.Stats() != tr.Stats() {
			t.Fatalf("round trip changed stats: %+v vs %+v", back.Stats(), tr.Stats())
		}
		if tr.Validate() != nil {
			return
		}
		evs, err := FromEvents(tr.Tasks, tr.Events())
		if err != nil {
			t.Fatalf("FromEvents of an accepted trace: %v\n%s", err, sb.String())
		}
		if !reflect.DeepEqual(evs, tr) {
			t.Fatalf("FromEvents reassembled\n%s\nfrom\n%s", evs, sb.String())
		}
	})
}

// FuzzFromEventsPeriodic checks the segmenter against arbitrary event
// streams encoded as byte triples.
func FuzzFromEventsPeriodic(f *testing.F) {
	f.Add([]byte{0, 10, 1, 0, 20, 2}, int64(100))
	f.Add([]byte{}, int64(50))
	f.Fuzz(func(t *testing.T, raw []byte, periodLen int64) {
		var events []Event
		for i := 0; i+2 < len(raw); i += 3 {
			events = append(events, Event{
				Time: int64(raw[i+1]) * 7,
				Kind: Kind(raw[i] % 5),
				Name: string(rune('a' + raw[i+2]%3)),
			})
		}
		tr, err := FromEventsPeriodic([]string{"a", "b", "c"}, events, 0, periodLen)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails validation: %v", err)
		}
	})
}
