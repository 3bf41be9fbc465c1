package engine

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/casestudy"
	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden per-period working sets")

// goldenTraces are the exact-mode inputs whose per-period working sets
// are pinned: the lite case-study trace and the lite model simulated
// at two more seeds, 27 periods each.
func goldenTraces(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	out := map[string]*trace.Trace{"lite": casestudy.MustLiteTrace()}
	for _, seed := range []int64{3, 11} {
		o, err := sim.Run(casestudy.LiteModel(), sim.Options{Periods: casestudy.Periods, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("seed%d", seed)] = o.Trace
	}
	return out
}

// renderPeriodSets runs the exact engine over tr and renders one line
// per period end: the working-set size and a sha256 over the
// survivors' packed encodings, in working-set order.
func renderPeriodSets(t *testing.T, name string, tr *trace.Trace) string {
	t.Helper()
	ts, err := depfunc.NewTaskSet(tr.Tasks)
	if err != nil {
		t.Fatal(err)
	}
	e := New(ts, Config{Policy: casestudy.LitePolicy()})
	var sb strings.Builder
	for _, p := range tr.Periods {
		if err := e.ProcessPeriod(p); err != nil {
			t.Fatalf("%s period %d: %v", name, p.Index, err)
		}
		sum := sha256.New()
		for _, h := range e.Working() {
			sum.Write([]byte(h.D.EncodePacked()))
			sum.Write([]byte{'\n'})
		}
		fmt.Fprintf(&sb, "%s %d %d %x\n", name, p.Index, e.WorkingSetSize(), sum.Sum(nil))
	}
	return sb.String()
}

// TestExactPeriodSetsGolden pins the exact engine's working set at
// every period end, order included, on three lite traces. Pruning
// inside the period must not change what any period hands on. The
// golden was recorded from the engine that pruned only at period
// ends; regenerate deliberately with
//
//	go test ./internal/engine -run TestExactPeriodSetsGolden -update
func TestExactPeriodSetsGolden(t *testing.T) {
	traces := goldenTraces(t)
	var sb strings.Builder
	for _, name := range []string{"lite", "seed3", "seed11"} {
		sb.WriteString(renderPeriodSets(t, name, traces[name]))
	}
	got := sb.String()
	path := filepath.Join("testdata", "exact_periods.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("golden has %d lines, run produced %d", len(wl), len(gl))
	}
	for i := range gl {
		if gl[i] != wl[i] {
			t.Errorf("period set differs:\n got %s\nwant %s", gl[i], wl[i])
		}
	}
}
