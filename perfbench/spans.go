package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the layer's public function.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Req    int64  `json:"req"`    // batch or request the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // on the recorder's clock
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory; dump writes them out at the end.
// A nil recorder records nothing, so untraced drives share the code
// path at the cost of one nil check per call.
type recorder struct {
	mu    sync.Mutex
	now   func() time.Duration
	spans []span
}

// newRecorder records on the wall clock, measured from now.
func newRecorder() *recorder {
	epoch := time.Now()
	return &recorder{now: func() time.Duration { return time.Since(epoch) }}
}

// newThreadRecorder records on the calling thread's CPU clock; every
// span must then be opened and closed on that (locked) thread.
func newThreadRecorder() *recorder { return &recorder{now: threadCPU} }

// open starts a span and returns its id; close ends it.
func (r *recorder) open(name string, parent int, req int64) int {
	if r == nil {
		return 0
	}
	now := r.now().Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: now})
	return len(r.spans)
}

func (r *recorder) close(id int) {
	if r == nil {
		return
	}
	now := r.now().Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// timed records fn as a span.
func (r *recorder) timed(name string, parent int, req int64, fn func()) {
	id := r.open(name, parent, req)
	fn()
	r.close(id)
}

// totals returns, per span name, the summed duration and the summed
// self time: a span's duration minus the part of it its child spans
// cover.
func (r *recorder) totals() (total, self map[string]time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range r.spans {
		d := s.End - s.Start
		total[s.Name] += time.Duration(d)
		self[s.Name] += time.Duration(d - covered(s, children[s.ID]))
	}
	return total, self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return sum + curHi - curLo
}

// dump writes every span as one JSON line.
func (r *recorder) dump(path string) error {
	if r == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
