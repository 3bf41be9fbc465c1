package main

import (
	"strings"
	"testing"
	"time"
)

// Tiny variants of the workloads: same code paths, inputs small
// enough for the unit-test tier.
func tinyBatch(spec batchSpec) batchSpec {
	spec.periods = 3
	if spec.opt.Bound > 0 {
		spec.opt.Bound = 8
	}
	return spec
}

func tinyServed(spec servedSpec) servedSpec {
	spec.streams, spec.periods, spec.compactEvery = 2, 6, 2
	return spec
}

func tinyWorkloads() []workload {
	return []workload{
		{"learn-b150", func(c runConfig) (*report, error) { return runBatch(c, tinyBatch(learnB150)) }},
		{"learn-exact-lite", func(c runConfig) (*report, error) { return runBatch(c, tinyBatch(learnExactLite)) }},
		{"serve-wal", func(c runConfig) (*report, error) { return runServed(c, tinyServed(serveWAL)) }},
		{"serve-cluster", func(c runConfig) (*report, error) { return runServed(c, tinyServed(serveCluster)) }},
	}
}

// TestEveryMetricEmitted runs every workload at a tiny size, untraced
// and traced, and checks each declared metric is reported with its
// unit, nothing undeclared is, and the run is correct.
func TestEveryMetricEmitted(t *testing.T) {
	if len(tinyWorkloads()) != len(workloads()) {
		t.Fatal("tinyWorkloads is out of step with workloads")
	}
	for _, w := range tinyWorkloads() {
		for _, traced := range []bool{false, true} {
			want := endToEnd
			if traced {
				want = perLayer
			}
			rep, err := w.run(runConfig{seed: 3, seconds: time.Millisecond, traced: traced, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v", w.name, traced, rep.Failed, rep.Attempted, rep.notes)
			}
			for name, unit := range want {
				m, ok := rep.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.name, traced, name, m, unit)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
			}
		}
	}
}

// TestBatchGateRejectsWrongModel: the batch gate fails when the
// learned model it checks is not the learner's.
func TestBatchGateRejectsWrongModel(t *testing.T) {
	spec := tinyBatch(learnB150)
	text, err := simulate(spec.model(), spec.periods, subSeed(5, 0))
	if err != nil {
		t.Fatal(err)
	}
	var ok tally
	d := spec.drive([]string{text}, 0, &ok)
	spec.gate(d, &ok)
	if ok.failed != 0 {
		t.Fatalf("gate fails a correct model: %v", ok.errs)
	}
	d.first.view.LUB += "x"
	var bad tally
	spec.gate(d, &bad)
	if bad.failed == 0 {
		t.Fatal("gate accepted a wrong expected model")
	}
}

// TestServedGateRejectsWrongModel: a round's served models fail the
// gate when the expected model is wrong.
func TestServedGateRejectsWrongModel(t *testing.T) {
	spec := tinyServed(serveWAL)
	streams, tasks, err := spec.inputs(5)
	if err != nil {
		t.Fatal(err)
	}
	r, err := spec.runRound(t.TempDir(), tasks, streams, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	verifyFinals(r.finals, streams, "round", &r.tally)
	if r.tally.failed != 0 {
		t.Fatalf("gate fails correct models: %v", r.tally.errs)
	}
	streams[1].want.Hyps = append([]string(nil), streams[1].want.Hyps...)
	// Every table holds the diagonal "||"; turn one entry into a dependency.
	streams[1].want.Hyps[0] = strings.Replace(streams[1].want.Hyps[0], "||", "->", 1)
	var bad tally
	verifyFinals(r.finals, streams, "round", &bad)
	if bad.failed != 1 {
		t.Fatalf("gate counted %d failures for one wrong expected model, want 1", bad.failed)
	}
}

// TestCovered checks the self-time arithmetic: the union of child
// intervals, clipped to the parent.
func TestCovered(t *testing.T) {
	parent := span{Start: 10, End: 100}
	kids := []span{{Start: 5, End: 20}, {Start: 15, End: 30}, {Start: 50, End: 60}, {Start: 95, End: 120}, {Start: 200, End: 300}}
	if got, want := covered(parent, kids), int64(10+10+10+5); got != want {
		t.Fatalf("covered = %d, want %d", got, want)
	}
}
