package obs

import "sync"

// Recorder captures every event in order, for test assertions and
// offline inspection. It is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	events []Event
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder { return &Recorder{} }

func (r *Recorder) record(e Event) {
	r.mu.Lock()
	r.events = append(r.events, e)
	r.mu.Unlock()
}

func (r *Recorder) OnMessageProcessed(e MessageProcessed) { r.record(e) }
func (r *Recorder) OnPeriodEnd(e PeriodEnd)               { r.record(e) }
func (r *Recorder) OnRunEnd(e RunEnd)                     { r.record(e) }
func (r *Recorder) OnPipeline(e Pipeline)                 { r.record(e) }
func (r *Recorder) OnProvenance(e Provenance)             { r.record(e) }
func (r *Recorder) OnSpan(e SpanEnd)                      { r.record(e) }

// Events returns a copy of the captured events in emission order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Kinds returns the kind strings of the captured events in order.
func (r *Recorder) Kinds() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.events))
	for i, e := range r.events {
		out[i] = e.Kind()
	}
	return out
}

// OfKind returns the captured events of the given kind, in order.
func (r *Recorder) OfKind(kind string) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Event
	for _, e := range r.events {
		if e.Kind() == kind {
			out = append(out, e)
		}
	}
	return out
}

// Count returns the number of captured events of the given kind.
func (r *Recorder) Count(kind string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, e := range r.events {
		if e.Kind() == kind {
			n++
		}
	}
	return n
}

// Len returns the total number of captured events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Reset discards the captured events.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.events = nil
	r.mu.Unlock()
}
