package engine

import (
	"sync"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
)

// minParallelParents is the working-set size below which the fan-out
// stays sequential even with Workers > 1: dispatching to the pool
// costs more than assuming a handful of pairs.
const minParallelParents = 2

// fanPool is the per-Generalize worker pool behind the parallel
// fan-out. It is spawned once per generalize stage (not per message)
// and re-sharded per message by partitioning the live hypothesis set
// into Workers contiguous chunks: chunk c covers parents
// [c·P/W, (c+1)·P/W), each chunk appends its children to its own
// reusable flat buffer, and because chunks tile the parent list in
// order, reading the chunk buffers in chunk order replays the exact
// (parent, candidate-pair) sequence of the sequential loop — which is
// what keeps the gather bit-identical for any worker count.
//
// Workers touch only immutable shared state (the frozen history, the
// candidate pairs, the parents of their own chunk); statistics, dedup,
// events and bounded merging all stay in the caller's sequential
// gather. The chunk buffers grow to the high-water child count of the
// period and are then reused message after message, so a steady-state
// fan-out allocates nothing but the children themselves.
type fanPool struct {
	e    *Engine
	n    int // chunk count == worker count
	jobs chan fanJob
	wg   sync.WaitGroup
	kids [][]*hypothesis.Hypothesis
}

// fanJob asks whichever worker receives it to fill chunk c for the
// current message.
type fanJob struct {
	chunk int
	cur   []*hypothesis.Hypothesis
	pairs []depfunc.Pair
	ctx   hypothesis.StepCtx
	done  *sync.WaitGroup
}

// newFanPool spawns the stage's workers.
func (e *Engine) newFanPool() *fanPool {
	p := &fanPool{
		e:    e,
		n:    e.cfg.Workers,
		jobs: make(chan fanJob, e.cfg.Workers),
		kids: make([][]*hypothesis.Hypothesis, e.cfg.Workers),
	}
	p.wg.Add(p.n)
	for w := 0; w < p.n; w++ {
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				lo := job.chunk * len(job.cur) / p.n
				hi := (job.chunk + 1) * len(job.cur) / p.n
				// Each chunk draws assumption cells and headers from
				// its own arena so workers never contend (or race) on
				// one.
				ctx := job.ctx
				ctx.Arena = &p.e.arenas[job.chunk]
				buf := p.kids[job.chunk][:0]
				for _, h := range job.cur[lo:hi] {
					buf = p.e.childrenOf(h, job.pairs, ctx, buf)
				}
				p.kids[job.chunk] = buf
				job.done.Done()
			}
		}()
	}
	return p
}

// run shards one message's fan-out across the pool and waits for the
// barrier. The returned buffers hold, in chunk order, the children of
// every parent in (parent, pair) generation order; they are only valid
// until the next run call.
//
// Headers the gather releases land in the main arena (ctx.Arena), so
// before dispatching, still on the caller's goroutine, run tops up
// each chunk arena's freelist from it to that chunk's worst-case child
// count. Workers then touch only their own arena.
func (p *fanPool) run(cur []*hypothesis.Hypothesis, pairs []depfunc.Pair,
	ctx hypothesis.StepCtx) [][]*hypothesis.Hypothesis {

	for c := 0; c < p.n; c++ {
		parents := (c+1)*len(cur)/p.n - c*len(cur)/p.n
		p.e.arenas[c].TopUp(ctx.Arena, parents*len(pairs))
	}
	var done sync.WaitGroup
	done.Add(p.n)
	for c := 0; c < p.n; c++ {
		p.jobs <- fanJob{chunk: c, cur: cur, pairs: pairs, ctx: ctx, done: &done}
	}
	done.Wait()
	return p.kids
}

// close drains the pool; the generalize stage defers it.
func (p *fanPool) close() {
	close(p.jobs)
	p.wg.Wait()
}
