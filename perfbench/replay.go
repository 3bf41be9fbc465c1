package main

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/blackbox-rt/modelgen/internal/engine"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/serve"
	"github.com/blackbox-rt/modelgen/internal/store"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// replayer times the served path's layers from outside: it feeds the
// lines a round POSTed through the same public calls the server makes
// per batch — trace.LineReader, Online.AddPeriod, PeriodDelta plus its
// JSON encoding, store.Stream.Append (and Compact when the log crosses
// its threshold), Online.Result — with a span around each, on a store
// of its own.
type replayer struct {
	spec    servedSpec
	tasks   []string
	streams []*stream
	rec     *recorder

	lines, cut, records, compactions int
	deltaBytes, appendBytes          int
	stats                            engine.Stats // summed over streams; Peak is the maximum
}

// walRecord is the payload shape the server appends per period.
type walRecord struct {
	Delta *learner.Delta `json:"delta"`
}

// baseRecord is the base-snapshot shape written at compaction.
type baseRecord struct {
	Info     serve.StreamInfo  `json:"info"`
	Snapshot *learner.Snapshot `json:"snapshot"`
}

// replay runs every stream of the round through the layers and checks
// each ends in the model the server served.
func (rp *replayer) replay(dir string, served []modelView, t *tally) error {
	st, err := store.Open(store.Options{Dir: dir, CompactRecords: rp.spec.compactEvery})
	if err != nil {
		return err
	}
	for i, s := range rp.streams {
		got, err := rp.stream(st, s)
		if !t.op(err) {
			continue
		}
		t.op(wrapErr("layer replay of stream "+s.id+" against the served model", got.diff(served[i])))
	}
	return nil
}

func (rp *replayer) stream(st *store.Store, s *stream) (modelView, error) {
	rec := rp.rec
	info := serve.StreamInfo{ID: s.id, Tasks: rp.tasks, Options: serve.LearnOptions{Bound: rp.spec.bound}}
	meta, err := json.Marshal(info)
	if err != nil {
		return modelView{}, err
	}
	ws, err := st.Create(s.id, meta, nil, 0)
	if err != nil {
		return modelView{}, err
	}
	defer ws.Close()
	lr, err := trace.NewLineReader(rp.tasks)
	if err != nil {
		return modelView{}, err
	}
	o, err := learner.NewOnline(rp.tasks, learner.Options{Bound: rp.spec.bound})
	if err != nil {
		return modelView{}, err
	}
	var learned uint64
	var res *learner.Result
	for b, body := range s.bodies {
		req := int64(b)
		root := rec.open("replay.batch", 0, req)
		var periods []*trace.Period
		lines := strings.Split(body, "\n")
		rec.timed("trace.parse", root, req, func() {
			for _, line := range lines {
				var p *trace.Period
				if p, err = lr.Line(line); err != nil {
					return
				}
				if p != nil {
					periods = append(periods, p)
				}
			}
		})
		if err != nil {
			return modelView{}, err
		}
		rp.lines += len(lines)
		rp.cut += len(periods)
		for _, p := range periods {
			rec.timed("learner.add_period", root, req, func() { err = o.AddPeriod(p) })
			if err != nil {
				return modelView{}, err
			}
			learned++
			var payload []byte
			rec.timed("learner.period_delta", root, req, func() {
				var d *learner.Delta
				if d, err = o.PeriodDelta(); err != nil {
					return
				}
				var enc []byte
				if enc, err = json.Marshal(d); err != nil {
					return
				}
				rp.deltaBytes += len(enc)
				payload, err = json.Marshal(walRecord{Delta: d})
			})
			if err != nil {
				return modelView{}, err
			}
			rec.timed("store.append", root, req, func() {
				err = ws.Append(store.Record{Seq: learned, Generation: 1, Payload: payload})
			})
			if err != nil {
				return modelView{}, err
			}
			rp.records++
			rp.appendBytes += len(payload)
			if ws.ShouldCompact() {
				rec.timed("store.compact", root, req, func() { err = compact(ws, o, info, meta, learned) })
				if err != nil {
					return modelView{}, err
				}
				rp.compactions++
			}
		}
		rec.timed("learner.result", root, req, func() { res, err = o.Result() })
		rec.close(root)
		if err != nil {
			return modelView{}, err
		}
	}
	if res == nil {
		return modelView{}, fmt.Errorf("stream %s: no batches", s.id)
	}
	stats := o.Stats()
	rp.stats.Candidates += stats.Candidates
	rp.stats.Children += stats.Children
	rp.stats.Merges += stats.Merges
	rp.stats.Relaxations += stats.Relaxations
	rp.stats.Peak = max(rp.stats.Peak, stats.Peak)
	return viewOf(res), nil
}

// compact folds the stream's log into a base snapshot, as the server
// does when a stream's WAL crosses its threshold.
func compact(ws *store.Stream, o *learner.Online, info serve.StreamInfo, meta []byte, learned uint64) error {
	snap, err := o.Snapshot()
	if err != nil {
		return err
	}
	base, err := json.Marshal(baseRecord{Info: info, Snapshot: snap})
	if err != nil {
		return err
	}
	return ws.Compact(base, learned, meta, time.Now())
}
