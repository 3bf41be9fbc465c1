package main

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/engine"
	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// batchSpec is a batch-learner workload: many independent traces of
// the case-study shape, each learned from scratch.
type batchSpec struct {
	model   func() *model.Model
	opt     learner.Options
	periods int // periods per trace
}

var (
	learnB150 = batchSpec{
		model:   casestudy.FullModel,
		opt:     learner.Options{Bound: 150, Policy: casestudy.FullPolicy()},
		periods: casestudy.Periods,
	}
	learnExactLite = batchSpec{
		model:   casestudy.LiteModel,
		opt:     learner.Options{Policy: casestudy.LitePolicy()},
		periods: casestudy.Periods,
	}
)

const (
	// poolPerSecond sizes the input pool of an untraced run: more
	// distinct traces than a run learns (a trace takes ≥0.3 s on
	// either workload), so per-trace work, which varies by ~20%
	// between seeds at bound 150, averages out within every run.
	poolPerSecond = 5
	// tracedInputs is the pool of a traced run, learned in whole
	// passes so its counters repeat exactly.
	tracedInputs = 4
)

// batchResult is one learned trace, kept for the correctness gate.
type batchResult struct {
	tr   *trace.Trace
	view modelView
}

// batchDrive is the outcome of driving the learner over inputs. Its
// times are CPU time of the driving thread (see threadCPU).
type batchDrive struct {
	periods   int
	learnTime time.Duration // first period offered until the model is read, summed
	acks      []float64     // per-period model-update latency, ms
	setups    []float64     // trace.Read plus learner construction, s
	// digests holds each learned input's model digest, against which a
	// repeated input and the traced drive are checked. Only digests are
	// kept, so memory does not grow with the number of traces learned.
	digests map[int][sha256.Size]byte
	// first is input 0's model, checked against learner.Learn.
	first *batchResult
}

// drive learns inputs in order, cycling, until budget (wall time) has
// elapsed, at least one trace. Each period is offered to the batch
// learner one at a time through learner.Online, the engine front-end
// that learner.Learn wraps, so each period's model update is one
// latency sample. Outside the timed region every model's LUB must
// match every period of its trace (Thm 2 soundness), and an input
// learned again must give the identical model.
func (spec batchSpec) drive(inputs []string, budget time.Duration, t *tally) batchDrive {
	d := batchDrive{digests: map[int][sha256.Size]byte{}}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin) < budget; i++ {
		k := i % len(inputs)
		t0 := threadCPU()
		tr, err := trace.Read(strings.NewReader(inputs[k]))
		if !t.op(err) {
			continue
		}
		o, err := learner.NewOnline(tr.Tasks, spec.opt)
		if !t.op(err) {
			continue
		}
		start := threadCPU()
		d.setups = append(d.setups, (start - t0).Seconds())
		var learnErr error
		for _, p := range tr.Periods {
			a := threadCPU()
			if learnErr = o.AddPeriod(p); learnErr != nil {
				break
			}
			d.acks = append(d.acks, ms(threadCPU()-a))
		}
		var res *learner.Result
		if learnErr == nil {
			res, learnErr = o.Result()
		}
		d.learnTime += threadCPU() - start
		if !t.op(learnErr) {
			continue
		}
		d.periods += len(tr.Periods)
		ok, at := depfunc.MatchTrace(res.LUB, tr, spec.opt.Policy)
		t.op(expect(ok, "input %d: LUB does not match period %d of its trace", k, at))
		view := viewOf(res)
		sum := view.digest()
		if prev, seen := d.digests[k]; seen {
			t.op(expect(sum == prev, "input %d: learned again, the model differs", k))
		} else {
			d.digests[k] = sum
		}
		if k == 0 && d.first == nil {
			d.first = &batchResult{tr: tr, view: view}
		}
	}
	return d
}

// gate checks, outside the timed region, that the first input's model
// equals a fresh batch learner.Learn over the same trace and options.
func (spec batchSpec) gate(d batchDrive, t *tally) {
	if d.first == nil {
		return // input 0 failed to learn, already counted
	}
	res, err := learner.Learn(d.first.tr, spec.opt)
	if t.op(err) {
		t.op(wrapErr("input 0 against learner.Learn", d.first.view.diff(viewOf(res))))
	}
}

// expect returns nil when ok holds and otherwise the formatted error.
func expect(ok bool, format string, args ...any) error {
	if ok {
		return nil
	}
	return fmt.Errorf(format, args...)
}

func wrapErr(what string, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%s: %w", what, err)
}

func runBatch(cfg runConfig, spec batchSpec) (*report, error) {
	if _, err := readThreadCPU(); err != nil {
		return nil, err
	}
	n := max(tracedInputs, int(cfg.seconds.Seconds()*poolPerSecond))
	if cfg.traced {
		n = tracedInputs
	}
	inputs := make([]string, n)
	for i := range inputs {
		var err error
		if inputs[i], err = simulate(spec.model(), spec.periods, subSeed(cfg.seed, i)); err != nil {
			return nil, err
		}
	}
	var t tally
	rep := &report{Metrics: map[string]metric{}}
	// Warm-up: one untimed trace fills caches and the heap.
	spec.drive(inputs[:1], 0, &t)

	if !cfg.traced {
		d := spec.drive(inputs, cfg.seconds, &t)
		spec.gate(d, &t)
		var err error
		if rep.Metrics, err = endToEndMetrics(float64(d.periods)/d.learnTime.Seconds(), d.acks, d.setups); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("traces=%d distinct=%d periods=%d ack_samples=%d setup_samples=%d",
			len(d.setups), len(d.digests), d.periods, len(d.acks), len(d.setups)))
		t.fill(rep)
		return rep, nil
	}

	// Traced run: half the time untraced (the overhead baseline and the
	// Go runtime counters), half driving the engine stages with spans,
	// both over the same inputs.
	g0 := readGoCounters()
	base := spec.drive(inputs, cfg.seconds/2, &t)
	g1 := readGoCounters()
	rec := newThreadRecorder()
	tc := spec.tracedDrive(inputs, cfg.seconds/2, rec, base.digests, &t)
	if err := rec.dump(cfg.spansOut); err != nil {
		return nil, err
	}
	layers := newLayerMetrics()
	total, _ := rec.totals()
	per := func(name string) float64 { return total[name].Seconds() / float64(tc.periods) }
	layers.set("trace.parse_s", per("trace.parse"))
	layers.set("trace.lines", float64(tc.lines)/float64(tc.periods))
	layers.set("trace.periods_cut", float64(tc.cut)/float64(tc.periods))
	layers.set("engine.candidates_s", per("engine.candidates"))
	layers.set("engine.generalize_s", per("engine.generalize"))
	layers.set("engine.postprocess_s", per("engine.postprocess"))
	layers.set("engine.pruned", float64(tc.pruned)/float64(tc.periods))
	layers.engineCounts(tc.stats, tc.periods)
	gc, alloc := g0.perPeriod(g1, base.periods)
	layers.set("go.gc_cycles", gc)
	layers.set("go.alloc_bytes_per_period", alloc)
	untraced := float64(base.periods) / base.learnTime.Seconds()
	traced := float64(tc.periods) / total["bench.learn"].Seconds()
	layers.set("bench.traced_periods_per_s", traced)
	layers.set("bench.tracing_overhead", untraced/traced-1)
	rep.Metrics = layers.m
	rep.notes = append(rep.notes,
		fmt.Sprintf("traced: passes=%d periods=%d spans=%d; untraced baseline: periods=%d", tc.passes, tc.periods, len(rec.spans), base.periods),
		fmt.Sprintf("generalize share of the staged learn time: %.3f (base: bench.learn %.3fs)",
			total["engine.generalize"].Seconds()/total["bench.learn"].Seconds(), total["bench.learn"].Seconds()))
	t.fill(rep)
	return rep, nil
}

// tracedBatch is the outcome of the staged, traced drive.
type tracedBatch struct {
	periods, lines, cut, pruned, passes int
	stats                               engine.Stats // summed over traces; Peak is the maximum
}

// tracedDrive drives engine.New and the three engine stages per period
// in place of the learner, with a span around each call, cycling over
// whole passes of inputs until budget has elapsed. Each model must
// equal the untraced drive's model for the same input.
func (spec batchSpec) tracedDrive(inputs []string, budget time.Duration, rec *recorder,
	want map[int][sha256.Size]byte, t *tally) tracedBatch {

	var tb tracedBatch
	cfg := engine.Config{Bound: spec.opt.Bound, Policy: spec.opt.Policy}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	begin := time.Now()
	for pass := 0; pass == 0 || time.Since(begin) < budget; pass++ {
		tb.passes++
		for k, text := range inputs {
			req := int64(pass*len(inputs) + k)
			var tr *trace.Trace
			var err error
			rec.timed("trace.parse", 0, req, func() { tr, err = trace.Read(strings.NewReader(text)) })
			if !t.op(err) {
				continue
			}
			ts, err := depfunc.NewTaskSet(tr.Tasks)
			if !t.op(err) {
				continue
			}
			root := rec.open("bench.learn", 0, req)
			e := engine.New(ts, cfg)
			for _, p := range tr.Periods {
				executed := execVector(p, ts)
				var cands [][]depfunc.Pair
				var live []map[depfunc.Pair]bool
				rec.timed("engine.candidates", root, req, func() { cands, live = e.EnumerateCandidates(p) })
				rec.timed("engine.generalize", root, req, func() { err = e.Generalize(p, cands, live) })
				if err != nil {
					break
				}
				rec.timed("engine.postprocess", root, req, func() {
					_, dropped := e.Postprocess(p, executed)
					tb.pruned += dropped
				})
			}
			rec.close(root)
			if !t.op(err) {
				continue
			}
			tb.periods += len(tr.Periods)
			tb.cut += len(tr.Periods)
			tb.lines += strings.Count(text, "\n")
			st := e.Stats()
			tb.stats.Candidates += st.Candidates
			tb.stats.Children += st.Children
			tb.stats.Merges += st.Merges
			tb.stats.Relaxations += st.Relaxations
			tb.stats.Peak = max(tb.stats.Peak, st.Peak)
			if w, ok := want[k]; ok {
				got := stagedView(e)
				got.Periods = len(tr.Periods)
				t.op(expect(got.digest() == w, "staged drive of input %d: the model differs from the learner's", k))
			}
		}
	}
	return tb
}

// stagedView renders the engine's working set the way learner results
// are rendered: sorted by ascending weight, ties by encoding.
func stagedView(e *engine.Engine) modelView {
	ds := make([]*depfunc.DepFunc, 0, e.WorkingSetSize())
	for _, h := range e.Working() {
		ds = append(ds, &h.D)
	}
	sort.SliceStable(ds, func(a, b int) bool {
		if wa, wb := ds[a].Weight(), ds[b].Weight(); wa != wb {
			return wa < wb
		}
		return ds[a].Key() < ds[b].Key()
	})
	v := modelView{LUB: depfunc.JoinAll(ds).Table()}
	for _, d := range ds {
		v.Hyps = append(v.Hyps, d.Table())
	}
	return v
}

// execVector marks the tasks that executed in the period, the input
// Postprocess expects (the engine computes the same vector inside
// ProcessPeriod).
func execVector(p *trace.Period, ts *depfunc.TaskSet) []bool {
	v := make([]bool, ts.Len())
	for name := range p.Execs {
		if i := ts.Index(name); i >= 0 {
			v[i] = true
		}
	}
	return v
}
