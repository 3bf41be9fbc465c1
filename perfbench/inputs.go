package main

import (
	"crypto/sha256"
	"fmt"
	"strings"

	"github.com/blackbox-rt/modelgen/internal/learner"
	"github.com/blackbox-rt/modelgen/internal/model"
	"github.com/blackbox-rt/modelgen/internal/sim"
	"github.com/blackbox-rt/modelgen/internal/trace"
)

// subSeed derives the simulation seed of input i from the run seed
// (splitmix64), so inputs of one run are independent of each other
// and the same run seed always gives the same inputs.
func subSeed(seed int64, i int) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// simulate runs the design model for the given periods and renders
// the bus log in the text trace format: the only form of the input
// the code under test sees.
func simulate(m *model.Model, periods int, seed int64) (string, error) {
	out, err := sim.Run(m, sim.Options{Periods: periods, Seed: seed})
	if err != nil {
		return "", fmt.Errorf("simulate seed %d: %w", seed, err)
	}
	var sb strings.Builder
	if err := trace.Write(&sb, out.Trace); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// modelView is a learned model as the served API shows it: the LUB
// and the hypothesis frontier as dependency tables, plus the number
// of periods it covers. Two models are the same iff their views are.
type modelView struct {
	LUB     string
	Hyps    []string
	Periods int
}

func viewOf(res *learner.Result) modelView {
	v := modelView{LUB: res.LUB.Table(), Periods: res.Stats.Periods}
	for _, d := range res.Hypotheses {
		v.Hyps = append(v.Hyps, d.Table())
	}
	return v
}

// digest is a fingerprint of the view: equal views, equal digests.
func (v modelView) digest() [sha256.Size]byte {
	h := sha256.New()
	fmt.Fprintf(h, "%d\x00%s", v.Periods, v.LUB)
	for _, t := range v.Hyps {
		fmt.Fprintf(h, "\x00%s", t)
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// diff returns nil when the views are equal and otherwise an error
// naming the first difference.
func (v modelView) diff(want modelView) error {
	switch {
	case v.Periods != want.Periods:
		return fmt.Errorf("model covers %d periods, want %d", v.Periods, want.Periods)
	case len(v.Hyps) != len(want.Hyps):
		return fmt.Errorf("model has %d hypotheses, want %d", len(v.Hyps), len(want.Hyps))
	case v.LUB != want.LUB:
		return fmt.Errorf("LUB differs:\n%s\nwant:\n%s", v.LUB, want.LUB)
	}
	for i := range v.Hyps {
		if v.Hyps[i] != want.Hyps[i] {
			return fmt.Errorf("hypothesis %d differs", i)
		}
	}
	return nil
}
