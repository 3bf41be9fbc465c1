package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func sampleFile() *File {
	f := New("test")
	f.Config = "lite"
	f.Periods = 10
	f.Seed = 7
	f.Runs = []Run{
		{Name: "bound_4", Bound: 4, Repetitions: 3, MedianNS: 1_000_000, P95NS: 1_200_000,
			Hypotheses: 2, PeakLive: 8, Merges: 5, AllocBytes: 64_000, Allocs: 900},
		{Name: "bound_16", Bound: 16, Repetitions: 3, MedianNS: 4_000_000, P95NS: 4_800_000,
			Hypotheses: 1, Converged: true, PeakLive: 16, Merges: 2, AllocBytes: 256_000, Allocs: 3_000},
	}
	return f
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_test.json")
	f := sampleFile()
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(f)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Errorf("round trip diverges:\n %s\n %s", a, b)
	}
}

// TestSchemaFields pins the JSON wire names of the schema: renaming a
// field silently invalidates every committed baseline.
func TestSchemaFields(t *testing.T) {
	data, err := json.Marshal(sampleFile())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		`"schema_version":3`, `"label":"test"`, `"created_at"`,
		`"host"`, `"os"`, `"arch"`, `"cpus"`, `"go_version"`,
		`"config":"lite"`, `"periods":10`, `"seed":7`,
		`"runs"`, `"name":"bound_4"`, `"bound":4`, `"repetitions":3`,
		`"median_ns":1000000`, `"p95_ns":1200000`, `"hypotheses":2`,
		`"converged":true`, `"peak_live":8`, `"merges":5`,
		`"alloc_bytes":64000`, `"allocs":900`,
	} {
		if !strings.Contains(string(data), key) {
			t.Errorf("serialized file lacks %s:\n%s", key, data)
		}
	}
	for _, key := range []string{`"workers"`, `"speedup_vs_sequential"`} {
		if strings.Contains(string(data), key) {
			t.Errorf("serialized file still carries the schema-2 key %s:\n%s", key, data)
		}
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*File)
	}{
		{"wrong schema version", func(f *File) { f.SchemaVersion = 99 }},
		{"empty label", func(f *File) { f.Label = "" }},
		{"bad created_at", func(f *File) { f.CreatedAt = "yesterday" }},
		{"incomplete host", func(f *File) { f.Host.GoVersion = "" }},
		{"no runs", func(f *File) { f.Runs = nil }},
		{"unnamed run", func(f *File) { f.Runs[0].Name = "" }},
		{"duplicate run", func(f *File) { f.Runs[1].Name = f.Runs[0].Name }},
		{"zero repetitions", func(f *File) { f.Runs[0].Repetitions = 0 }},
		{"p95 below median", func(f *File) { f.Runs[0].P95NS = f.Runs[0].MedianNS - 1 }},
	}
	for _, tc := range cases {
		f := sampleFile()
		tc.mutate(f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the file", tc.name)
		}
	}
	if err := sampleFile().Validate(); err != nil {
		t.Errorf("unmutated sample rejected: %v", err)
	}
}

func TestReadFileRejectsMalformed(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema_version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Error("ReadFile accepted a wrong-version file")
	}
	if _, err := ReadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("ReadFile accepted a missing file")
	}
}

func TestMeasureAndSummarize(t *testing.T) {
	var sink []byte
	samples := Measure(5, func() {
		sink = make([]byte, 1<<16)
		time.Sleep(time.Millisecond)
	})
	_ = sink
	if len(samples) != 5 {
		t.Fatalf("got %d samples", len(samples))
	}
	for i, s := range samples {
		if s.Elapsed < time.Millisecond {
			t.Errorf("sample %d: elapsed %v below the sleep floor", i, s.Elapsed)
		}
		if s.AllocBytes < 1<<16 {
			t.Errorf("sample %d: alloc delta %d missed the 64 KiB allocation", i, s.AllocBytes)
		}
		if s.Allocs == 0 {
			t.Errorf("sample %d: zero allocation count", i)
		}
	}
	r := Summarize("bound_8", 8, samples)
	if r.Name != "bound_8" || r.Bound != 8 || r.Repetitions != 5 {
		t.Errorf("summary identity wrong: %+v", r)
	}
	if r.MedianNS <= 0 || r.P95NS < r.MedianNS {
		t.Errorf("summary stats inconsistent: median %d, p95 %d", r.MedianNS, r.P95NS)
	}
}

func TestSummarizeStatistics(t *testing.T) {
	samples := make([]Sample, 0, 20)
	for i := 1; i <= 20; i++ {
		samples = append(samples, Sample{Elapsed: time.Duration(i) * time.Millisecond})
	}
	r := Summarize("x", 0, samples)
	// Sorted 1..20 ms: median index 10 -> 11 ms, p95 = ceil(19)-1 -> 19 ms.
	if r.MedianNS != (11 * time.Millisecond).Nanoseconds() {
		t.Errorf("median = %d", r.MedianNS)
	}
	if r.P95NS != (19 * time.Millisecond).Nanoseconds() {
		t.Errorf("p95 = %d", r.P95NS)
	}
}

// TestCompareFlagsSlowdown is the acceptance gate: a synthetic 2×
// slowdown of one bound must be flagged at a 10% threshold, and an
// identical file must pass.
func TestCompareFlagsSlowdown(t *testing.T) {
	baseline := sampleFile()
	current := sampleFile()
	if regs := Compare(baseline, current, 0.10); len(regs) != 0 {
		t.Fatalf("identical files flagged: %v", regs)
	}

	current.Runs[1].MedianNS *= 2
	current.Runs[1].P95NS *= 2
	regs := Compare(baseline, current, 0.10)
	if len(regs) != 2 {
		t.Fatalf("2x slowdown: got %d regressions %v, want median+p95 of bound_16", len(regs), regs)
	}
	for _, r := range regs {
		if r.Run != "bound_16" {
			t.Errorf("regression on wrong run: %+v", r)
		}
		if r.Ratio < 1.99 || r.Ratio > 2.01 {
			t.Errorf("ratio %.3f, want ~2", r.Ratio)
		}
	}
	if s := regs[0].String(); !strings.Contains(s, "bound_16") || !strings.Contains(s, "2.00x") {
		t.Errorf("regression rendering %q", s)
	}

	// Below-threshold jitter must not trip the gate.
	current = sampleFile()
	current.Runs[0].MedianNS = baseline.Runs[0].MedianNS * 105 / 100
	if regs := Compare(baseline, current, 0.10); len(regs) != 0 {
		t.Errorf("5%% jitter flagged at 10%% threshold: %v", regs)
	}

	// Runs only present on one side are ignored.
	current = sampleFile()
	current.Runs = current.Runs[:1]
	current.Runs[0].Name = "bound_999"
	if regs := Compare(baseline, current, 0.10); len(regs) != 0 {
		t.Errorf("unmatched runs compared: %v", regs)
	}
}

func TestParseThreshold(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want float64
		ok   bool
	}{
		{"10%", 0.10, true},
		{"2.5%", 0.025, true},
		{"0.1", 0.1, true},
		{" 15% ", 0.15, true},
		{"0", 0, true},
		{"-5%", 0, false},
		{"fast", 0, false},
		{"%", 0, false},
	} {
		got, err := ParseThreshold(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseThreshold(%q): err = %v", tc.in, err)
			continue
		}
		if tc.ok && (got < tc.want-1e-9 || got > tc.want+1e-9) {
			t.Errorf("ParseThreshold(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestNewHostPopulated(t *testing.T) {
	h := NewHost()
	if h.OS == "" || h.Arch == "" || h.CPUs <= 0 || !strings.HasPrefix(h.GoVersion, "go") {
		t.Errorf("host metadata incomplete: %+v", h)
	}
}
