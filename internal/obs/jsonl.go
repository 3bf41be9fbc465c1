package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// JSONLSink writes every event as one JSON object per line, the
// event's kind in the "event" field followed by the event's own
// fields:
//
//	{"event":"period_end","period":2,"live":5,"dropped":3,...}
//
// The stream is the offline-analysis format documented in the package
// comment; it is trivially consumed by jq, a spreadsheet import, or a
// replaying Recorder. Writes are serialized; the first write or
// marshal error is sticky and available from Err.
type JSONLSink struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLSink wraps w. The caller retains ownership of w (the sink
// never closes it); wrap with bufio for high-rate event streams.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{w: w} }

// Err returns the first error encountered while writing, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *JSONLSink) write(kind string, e any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		s.err = err
		return
	}
	line := make([]byte, 0, len(b)+len(kind)+14)
	line = append(line, `{"event":"`...)
	line = append(line, kind...)
	line = append(line, '"')
	if len(b) > 2 { // non-empty object: splice the event's fields in
		line = append(line, ',')
		line = append(line, b[1:len(b)-1]...)
	}
	line = append(line, '}', '\n')
	_, s.err = s.w.Write(line)
}

func (s *JSONLSink) OnMessageProcessed(e MessageProcessed) { s.write(e.Kind(), e) }
func (s *JSONLSink) OnPeriodEnd(e PeriodEnd)               { s.write(e.Kind(), e) }
func (s *JSONLSink) OnRunEnd(e RunEnd)                     { s.write(e.Kind(), e) }
func (s *JSONLSink) OnPipeline(e Pipeline)                 { s.write(e.Kind(), e) }
func (s *JSONLSink) OnProvenance(e Provenance)             { s.write(e.Kind(), e) }
func (s *JSONLSink) OnSpan(e SpanEnd)                      { s.write(e.Kind(), e) }

// ParseJSONL decodes a JSONL event stream produced by JSONLSink back
// into typed events. Unknown "event" kinds are skipped (forward
// compatibility); malformed lines return an error.
func ParseJSONL(r io.Reader) ([]Event, error) {
	dec := json.NewDecoder(r)
	var out []Event
	for dec.More() {
		var raw struct {
			Event string `json:"event"`
		}
		var msg json.RawMessage
		if err := dec.Decode(&msg); err != nil {
			return out, err
		}
		if err := json.Unmarshal(msg, &raw); err != nil {
			return out, err
		}
		var (
			e   Event
			err error
		)
		switch raw.Event {
		case "message_processed":
			e, err = decodeEvent[MessageProcessed](msg)
		case "period_end":
			e, err = decodeEvent[PeriodEnd](msg)
		case "run_end":
			e, err = decodeEvent[RunEnd](msg)
		case "pipeline":
			e, err = decodeEvent[Pipeline](msg)
		case "provenance":
			e, err = decodeEvent[Provenance](msg)
		case "span":
			e, err = decodeEvent[SpanEnd](msg)
		default:
			continue
		}
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}

func decodeEvent[T Event](msg json.RawMessage) (Event, error) {
	var v T
	if err := json.Unmarshal(msg, &v); err != nil {
		return nil, err
	}
	return v, nil
}
