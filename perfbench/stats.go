package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by linear
// interpolation between order statistics; xs is sorted in place. It
// returns 0 for no samples, which only a failed run has.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMiB is the process's maximum resident set size so far.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// goCounters is a runtime sample taken around a measured region.
type goCounters struct {
	gcCycles   uint32
	allocBytes uint64
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goCounters{gcCycles: ms.NumGC, allocBytes: ms.TotalAlloc}
}

// perPeriod returns the GC cycles and allocated bytes per period
// between two samples.
func (a goCounters) perPeriod(b goCounters, periods int) (gc, alloc float64) {
	p := float64(max(periods, 1))
	return float64(b.gcCycles-a.gcCycles) / p, float64(b.allocBytes-a.allocBytes) / p
}
