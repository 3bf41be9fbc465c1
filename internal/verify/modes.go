package verify

import (
	"fmt"
	"sort"
	"strings"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// Mode is one observed operation mode of the system: a set of tasks
// that executed together in at least one period. The paper uses the
// learned dependency graph to prove properties about "the operation
// mode of tasks"; enumerating the observed modes makes those
// properties concrete — e.g. task L executes in every mode in which A
// executes.
type Mode struct {
	// Tasks is the sorted set of tasks executing in this mode.
	Tasks []string
	// Periods lists the trace periods exhibiting the mode.
	Periods []int
}

// Count returns the number of periods exhibiting the mode.
func (m Mode) Count() int { return len(m.Periods) }

// Key returns the canonical "a+b+c" encoding of the mode's task set.
func (m Mode) Key() string { return strings.Join(m.Tasks, "+") }

// Modes enumerates the distinct operation modes of the trace, most
// frequent first (ties broken by key for determinism).
func Modes(tr *trace.Trace) []Mode {
	byKey := map[string]*Mode{}
	for _, p := range tr.Periods {
		tasks := p.ExecutedTasks()
		key := strings.Join(tasks, "+")
		m, ok := byKey[key]
		if !ok {
			m = &Mode{Tasks: tasks}
			byKey[key] = m
		}
		m.Periods = append(m.Periods, p.Index)
	}
	// Sort the map's keys, built once above, rather than rebuilding
	// each mode's Key on every comparison.
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if ci, cj := len(byKey[keys[i]].Periods), len(byKey[keys[j]].Periods); ci != cj {
			return ci > cj
		}
		return keys[i] < keys[j]
	})
	out := make([]Mode, len(keys))
	for i, k := range keys {
		out[i] = *byKey[k]
	}
	return out
}

// ModeReport relates the observed modes to a learned dependency
// function.
type ModeReport struct {
	Modes []Mode
	// AlwaysOn lists tasks executing in every observed mode.
	AlwaysOn []string
	// Violations lists human-readable inconsistencies between the
	// learned unconditional dependencies and the observed modes. A
	// sound learner produces none; a violation indicates the model
	// was learned from a different trace.
	Violations []string
}

// AnalyzeModes enumerates the trace's modes and checks every
// unconditional dependency of d against them: d(a,b) ∈ {→, ←, ↔}
// asserts that every mode containing a contains b.
func AnalyzeModes(tr *trace.Trace, d *depfunc.DepFunc) ModeReport {
	rep := ModeReport{Modes: Modes(tr)}
	if len(rep.Modes) == 0 {
		return rep
	}
	// Tasks present in all modes.
	on := map[string]int{}
	for _, m := range rep.Modes {
		for _, t := range m.Tasks {
			on[t]++
		}
	}
	for t, n := range on {
		if n == len(rep.Modes) {
			rep.AlwaysOn = append(rep.AlwaysOn, t)
		}
	}
	sort.Strings(rep.AlwaysOn)
	if d == nil {
		return rep
	}
	ts := d.TaskSet()
	for _, m := range rep.Modes {
		in := map[string]bool{}
		for _, t := range m.Tasks {
			in[t] = true
		}
		d.Entries(func(i, j int, v lattice.Value) {
			if !lattice.HasExecConstraint(v) {
				return
			}
			a, b := ts.Name(i), ts.Name(j)
			if in[a] && !in[b] {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("mode {%s}: d(%s,%s)=%s but %s runs without %s",
						m.Key(), a, b, v, a, b))
			}
		})
	}
	sort.Strings(rep.Violations)
	return rep
}

// ModeOfDisjunction summarizes which successors a disjunction task
// drove in each mode it participated in: for the paper's case study
// this recovers statements like "task A operates in modes {D}, {E} and
// {D,E}". The successor set of a task in a mode is the set of its
// conditional dependents (d(task, x) ∈ {→?}) that executed in the
// mode.
func ModeOfDisjunction(tr *trace.Trace, d *depfunc.DepFunc, task string) []string {
	ts := d.TaskSet()
	ti := ts.Index(task)
	if ti < 0 {
		return nil
	}
	var dependents []string
	for j := 0; j < ts.Len(); j++ {
		if j != ti && d.At(ti, j) == lattice.FwdMaybe {
			dependents = append(dependents, ts.Name(j))
		}
	}
	seen := map[string]bool{}
	var out []string
	for _, p := range tr.Periods {
		if !p.Executed(task) {
			continue
		}
		var chosen []string
		for _, dep := range dependents {
			if p.Executed(dep) {
				chosen = append(chosen, dep)
			}
		}
		key := "{" + strings.Join(chosen, ",") + "}"
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}
