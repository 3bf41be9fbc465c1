// Package osek implements a fixed-priority fully-preemptive
// single-processor scheduler in the style of the OSEK OS standard
// cited by the paper. It is the execution substrate of the trace
// simulator: jobs are released (by the period timer or by message
// arrival), the highest-priority ready job runs, and higher-priority
// releases preempt the running job.
//
// The scheduler is driven as a discrete-event component: the owner
// advances virtual time, injects releases, and asks for the next
// internally scheduled event (the completion of the running job).
// Task start events are reported at the job's first dispatch and end
// events at completion, matching the paper's trace model in which a
// preempted task's interval simply contains its preemptors'.
package osek

import (
	"container/heap"
	"fmt"
)

// Job is one task activation within a period.
type Job struct {
	Task     string
	Priority int // larger preempts smaller; unique per task
	// Remaining execution demand.
	remaining int64
	// started records the first dispatch time, -1 before dispatch.
	started int64
	release int64
}

// Release time of the job.
func (j *Job) Release() int64 { return j.release }

// Exec records one completed job: the task, its first dispatch and
// completion times, and its release time (for response-time checks).
type Exec struct {
	Task       string
	Start, End int64
	Release    int64
}

// Response returns the job's response time End - Release.
func (e Exec) Response() int64 { return e.End - e.Release }

// CPU is the scheduler state.
type CPU struct {
	now     int64
	running *Job
	ready   jobHeap
	done    []Exec
}

// New returns an idle CPU at time 0.
func New() *CPU { return &CPU{} }

// Now returns the CPU's current virtual time.
func (c *CPU) Now() int64 { return c.now }

// Idle reports whether no job is running or ready.
func (c *CPU) Idle() bool { return c.running == nil && c.ready.Len() == 0 }

// Release injects a job at the given time (must be >= Now). The CPU
// first advances to the release time; if the new job has higher
// priority than the running one, the running job is preempted and
// returned to the ready queue.
func (c *CPU) Release(task string, priority int, demand, at int64) error {
	if at < c.now {
		return fmt.Errorf("osek: release of %q at %d before current time %d", task, at, c.now)
	}
	if demand <= 0 {
		return fmt.Errorf("osek: job %q has non-positive demand %d", task, demand)
	}
	c.AdvanceTo(at)
	j := &Job{Task: task, Priority: priority, remaining: demand, started: -1, release: at}
	if c.running == nil {
		c.dispatch(j)
		return nil
	}
	if priority > c.running.Priority {
		heap.Push(&c.ready, c.running)
		c.dispatch(j)
		return nil
	}
	heap.Push(&c.ready, j)
	return nil
}

func (c *CPU) dispatch(j *Job) {
	if j.started < 0 {
		j.started = c.now
	}
	c.running = j
}

// NextCompletion returns the absolute time at which the running job
// completes if nothing else is released, and false when the CPU is
// idle.
func (c *CPU) NextCompletion() (int64, bool) {
	if c.running == nil {
		return 0, false
	}
	return c.now + c.running.remaining, true
}

// AdvanceTo moves virtual time forward to t, completing jobs along the
// way. Completed executions are collected and can be drained with
// TakeCompleted.
func (c *CPU) AdvanceTo(t int64) {
	for c.now < t {
		if c.running == nil {
			c.now = t
			return
		}
		finish := c.now + c.running.remaining
		if finish > t {
			c.running.remaining = finish - t
			c.now = t
			return
		}
		c.now = finish
		c.done = append(c.done, Exec{
			Task:    c.running.Task,
			Start:   c.running.started,
			End:     c.now,
			Release: c.running.release,
		})
		c.running = nil
		if c.ready.Len() > 0 {
			c.dispatch(heap.Pop(&c.ready).(*Job))
		}
	}
}

// TakeCompleted drains and returns the executions completed since the
// last call, in completion order.
func (c *CPU) TakeCompleted() []Exec {
	out := c.done
	c.done = nil
	return out
}

// Running returns the currently running task name, or "".
func (c *CPU) Running() string {
	if c.running == nil {
		return ""
	}
	return c.running.Task
}

// QueueLen returns the number of ready (not running) jobs.
func (c *CPU) QueueLen() int { return c.ready.Len() }

// jobHeap is a max-heap on priority with FIFO tie-breaking by release
// time (OSEK activates equal-priority tasks in activation order;
// priorities are unique in our models, so the tie-break is for
// robustness only).
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].release < h[j].release
}
func (h jobHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x interface{}) { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
