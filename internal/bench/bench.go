// Package bench defines the repo's benchmark-telemetry schema: the
// versioned BENCH_<label>.json files that record the Section 3.4
// heuristic sweep (per-bound wall time, working-set pressure and
// allocation counts) together with enough host metadata to interpret
// them later. cmd/bbbench writes these files and compares them, so
// every performance-relevant PR leaves a measured trail and can be
// gated against a committed baseline.
//
// The schema is deliberately flat and dependency-free: a File is one
// JSON object with a schema_version discriminator, host/go-version/
// commit metadata, the sweep configuration, and one Run entry per
// measured bound. Timing is summarized as median and p95 over the
// repetitions (medians absorb scheduler noise; the p95 catches
// bimodal regressions a median hides). Allocation telemetry comes
// from runtime.ReadMemStats deltas around each repetition.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// SchemaVersion is the current BENCH file schema. Readers reject
// files with a different version rather than guessing.
//
// Version history:
//
//	1 — initial schema (per-bound wall time, working-set pressure,
//	    allocation deltas).
//	2 — adds per-run workers (engine worker-pool size) and
//	    speedup_vs_sequential.
//	3 — drops both again: the engine has one sequential path, so
//	    every run is sequential.
const SchemaVersion = 3

// Host records where a benchmark ran.
type Host struct {
	OS        string `json:"os"`
	Arch      string `json:"arch"`
	CPUs      int    `json:"cpus"`
	GoVersion string `json:"go_version"`
	// Commit is the VCS revision baked into the binary by the Go
	// toolchain (empty when built outside a repository or with a
	// toolchain that does not stamp it).
	Commit string `json:"commit,omitempty"`
}

// NewHost captures the current host, including the vcs.revision build
// setting when present.
func NewHost() Host {
	h := Host{
		OS:        runtime.GOOS,
		Arch:      runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		GoVersion: runtime.Version(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// Run is the measurement of one sweep point (one bound, or the exact
// algorithm with Bound 0).
type Run struct {
	// Name identifies the sweep point, e.g. "bound_16" or "exact".
	Name string `json:"name"`
	// Bound is the heuristic bound b; 0 means the exact algorithm.
	Bound int `json:"bound"`
	// Repetitions is the number of measured repetitions behind the
	// summary statistics.
	Repetitions int `json:"repetitions"`
	// MedianNS and P95NS summarize per-repetition wall time.
	MedianNS int64 `json:"median_ns"`
	P95NS    int64 `json:"p95_ns"`
	// Hypotheses and Converged describe the learning outcome.
	Hypotheses int  `json:"hypotheses"`
	Converged  bool `json:"converged"`
	// PeakLive is the peak working-set size, Merges the heuristic
	// merge count (both from learner stats, identical across reps).
	PeakLive int `json:"peak_live"`
	Merges   int `json:"merges"`
	// AllocBytes and Allocs are per-repetition medians of the
	// runtime.ReadMemStats TotalAlloc / Mallocs deltas.
	AllocBytes uint64 `json:"alloc_bytes"`
	Allocs     uint64 `json:"allocs"`
}

// File is one BENCH_<label>.json document.
type File struct {
	SchemaVersion int    `json:"schema_version"`
	Label         string `json:"label"`
	CreatedAt     string `json:"created_at"` // RFC 3339
	Host          Host   `json:"host"`
	// Config, Periods and Seed pin the workload (the case-study
	// configuration and simulation parameters of the sweep).
	Config  string `json:"config"`
	Periods int    `json:"periods"`
	Seed    int64  `json:"seed"`
	Runs    []Run  `json:"runs"`
}

// New returns an empty File stamped with the current schema version,
// host and time.
func New(label string) *File {
	return &File{
		SchemaVersion: SchemaVersion,
		Label:         label,
		CreatedAt:     time.Now().UTC().Format(time.RFC3339),
		Host:          NewHost(),
	}
}

// Validate checks the structural invariants a well-formed BENCH file
// must satisfy; readers and writers both enforce it so a malformed
// file is caught at whichever end produced it.
func (f *File) Validate() error {
	if f.SchemaVersion != SchemaVersion {
		return fmt.Errorf("bench: schema_version %d, this tool speaks %d", f.SchemaVersion, SchemaVersion)
	}
	if f.Label == "" {
		return fmt.Errorf("bench: empty label")
	}
	if _, err := time.Parse(time.RFC3339, f.CreatedAt); err != nil {
		return fmt.Errorf("bench: bad created_at %q: %v", f.CreatedAt, err)
	}
	if f.Host.OS == "" || f.Host.Arch == "" || f.Host.GoVersion == "" {
		return fmt.Errorf("bench: incomplete host metadata %+v", f.Host)
	}
	if len(f.Runs) == 0 {
		return fmt.Errorf("bench: no runs")
	}
	seen := map[string]bool{}
	for i, r := range f.Runs {
		if r.Name == "" {
			return fmt.Errorf("bench: run %d has no name", i)
		}
		if seen[r.Name] {
			return fmt.Errorf("bench: duplicate run name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Repetitions <= 0 {
			return fmt.Errorf("bench: run %q: repetitions %d", r.Name, r.Repetitions)
		}
		if r.MedianNS <= 0 || r.P95NS < r.MedianNS {
			return fmt.Errorf("bench: run %q: median %d ns, p95 %d ns", r.Name, r.MedianNS, r.P95NS)
		}
	}
	return nil
}

// WriteFile validates f and writes it as indented JSON.
func (f *File) WriteFile(path string) error {
	if err := f.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile parses and validates a BENCH file.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %s: %v", path, err)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &f, nil
}

// Sample is one measured repetition: wall time plus the allocation
// deltas observed by runtime.ReadMemStats around the call.
type Sample struct {
	Elapsed    time.Duration
	AllocBytes uint64
	Allocs     uint64
}

// Measure runs fn reps times and returns one Sample per repetition.
// Allocation deltas are TotalAlloc/Mallocs differences, which count
// everything allocated during the call (monotone counters, so
// concurrent GC does not perturb them the way HeapAlloc would).
func Measure(reps int, fn func()) []Sample {
	samples := make([]Sample, 0, reps)
	var before, after runtime.MemStats
	for r := 0; r < reps; r++ {
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		fn()
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&after)
		samples = append(samples, Sample{
			Elapsed:    elapsed,
			AllocBytes: after.TotalAlloc - before.TotalAlloc,
			Allocs:     after.Mallocs - before.Mallocs,
		})
	}
	return samples
}

// Summarize folds samples into a Run (median and p95 wall time,
// median allocation counts). The caller fills the learning-outcome
// fields (Hypotheses, Converged, PeakLive, Merges).
func Summarize(name string, bound int, samples []Sample) Run {
	ns := make([]int64, len(samples))
	bytes := make([]uint64, len(samples))
	allocs := make([]uint64, len(samples))
	for i, s := range samples {
		ns[i] = s.Elapsed.Nanoseconds()
		bytes[i] = s.AllocBytes
		allocs[i] = s.Allocs
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	sort.Slice(bytes, func(i, j int) bool { return bytes[i] < bytes[j] })
	sort.Slice(allocs, func(i, j int) bool { return allocs[i] < allocs[j] })
	return Run{
		Name:        name,
		Bound:       bound,
		Repetitions: len(samples),
		MedianNS:    ns[len(ns)/2],
		P95NS:       ns[p95Index(len(ns))],
		AllocBytes:  bytes[len(bytes)/2],
		Allocs:      allocs[len(allocs)/2],
	}
}

// p95Index returns the index of the 95th-percentile element of a
// sorted slice of length n (nearest-rank method).
func p95Index(n int) int {
	i := (n*95 + 99) / 100 // ceil(0.95 n)
	if i < 1 {
		i = 1
	}
	return i - 1
}

// Regression is one metric of one run that slowed down beyond the
// threshold relative to the baseline.
type Regression struct {
	Run      string  // run name
	Metric   string  // "median_ns", "p95_ns" or "alloc_bytes"
	Baseline int64   // baseline value
	Current  int64   // current value
	Ratio    float64 // current / baseline
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %d -> %d (%.2fx)", r.Run, r.Metric, r.Baseline, r.Current, r.Ratio)
}

// Compare reports every run metric that regressed by more than
// threshold (0.10 = 10% slower than baseline). Runs present in only
// one file are ignored: the sweep configuration may legitimately
// change between baselines. Improvements are never reported.
func Compare(baseline, current *File, threshold float64) []Regression {
	base := make(map[string]Run, len(baseline.Runs))
	for _, r := range baseline.Runs {
		base[r.Name] = r
	}
	var out []Regression
	for _, cur := range current.Runs {
		b, ok := base[cur.Name]
		if !ok {
			continue
		}
		for _, m := range []struct {
			name     string
			old, new int64
		}{
			{"median_ns", b.MedianNS, cur.MedianNS},
			{"p95_ns", b.P95NS, cur.P95NS},
			{"alloc_bytes", int64(b.AllocBytes), int64(cur.AllocBytes)},
		} {
			if m.old <= 0 {
				continue
			}
			ratio := float64(m.new) / float64(m.old)
			if ratio > 1+threshold {
				out = append(out, Regression{
					Run: cur.Name, Metric: m.name,
					Baseline: m.old, Current: m.new, Ratio: ratio,
				})
			}
		}
	}
	return out
}

// ParseThreshold parses a regression threshold given either as a
// percentage ("10%") or a fraction ("0.1").
func ParseThreshold(s string) (float64, error) {
	s = strings.TrimSpace(s)
	pct := strings.HasSuffix(s, "%")
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		return 0, fmt.Errorf("bench: bad threshold %q", s)
	}
	if pct {
		v /= 100
	}
	if v < 0 {
		return 0, fmt.Errorf("bench: negative threshold %q", s)
	}
	return v, nil
}
