package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonTrace is the JSON wire format of a trace: a stable, explicit
// schema decoupled from the in-memory representation.
type jsonTrace struct {
	Tasks   []string     `json:"tasks"`
	Periods []jsonPeriod `json:"periods"`
}

type jsonPeriod struct {
	Execs []jsonExec `json:"execs"`
	Msgs  []Message  `json:"msgs,omitempty"`
}

type jsonExec struct {
	Task  string `json:"task"`
	Start int64  `json:"start"`
	End   int64  `json:"end"`
}

// MarshalJSON implements json.Marshaler with deterministic ordering
// (executions by start time, then name).
func (tr *Trace) MarshalJSON() ([]byte, error) {
	out := jsonTrace{Tasks: tr.Tasks}
	for _, p := range tr.Periods {
		jp := jsonPeriod{Msgs: p.Msgs}
		for _, name := range p.execsByStart() {
			iv := p.Execs[name]
			jp.Execs = append(jp.Execs, jsonExec{Task: name, Start: iv.Start, End: iv.End})
		}
		out.Periods = append(out.Periods, jp)
	}
	return json.Marshal(out)
}

// UnmarshalJSON implements json.Unmarshaler and validates the decoded
// trace.
func (tr *Trace) UnmarshalJSON(data []byte) error {
	var in jsonTrace
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	decoded := New(in.Tasks)
	for i, jp := range in.Periods {
		p := &Period{Index: i, Execs: map[string]Interval{}}
		for _, e := range jp.Execs {
			if _, dup := p.Execs[e.Task]; dup {
				return fmt.Errorf("%w: %q in period %d", ErrDuplicateExec, e.Task, i)
			}
			p.Execs[e.Task] = Interval{Start: e.Start, End: e.End}
		}
		p.Msgs = append(p.Msgs, jp.Msgs...)
		sortMessages(p.Msgs)
		decoded.Periods = append(decoded.Periods, p)
	}
	if err := decoded.Validate(); err != nil {
		return err
	}
	*tr = *decoded
	return nil
}

// WriteJSON serializes the trace as indented JSON.
func WriteJSON(w io.Writer, tr *Trace) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// ReadJSON parses a JSON trace.
func ReadJSON(r io.Reader) (*Trace, error) {
	var tr Trace
	if err := json.NewDecoder(r).Decode(&tr); err != nil {
		return nil, err
	}
	return &tr, nil
}
