package engine

import (
	"github.com/blackbox-rt/modelgen/internal/hypothesis"
	"github.com/blackbox-rt/modelgen/internal/obs"
)

// pruneMostSpecific unifies equal hypotheses and removes redundant
// ones: h is redundant iff some other hypothesis is strictly more
// specific (Section 3.1 post-processing). Removals are reported to the
// observer, first every "duplicate" in input order, then every
// "redundant" in ascending weight. The survivors come back in
// ascending weight (stable within a weight), compacted into hs's
// backing array; the rest of that array is cleared so that nothing
// pruned stays reachable through it.
//
// Assumption sets are already cleared, so the engine's dedup set,
// which keys on the hypothesis state, unifies exactly the equal
// dependency functions. The scan then visits the unique hypotheses in
// ascending weight and tests each only against the survivors strictly
// lighter than it. That decides the same set as testing every lighter
// hypothesis: a dominator j ⊏ h that was itself pruned has a strictly
// lighter dominator, and following that chain ends at a survivor,
// which is ⊑ j ⊑ h. A strictly lighter function cannot equal h, so
// the subset test alone decides strictness.
func (e *Engine) pruneMostSpecific(hs []*hypothesis.Hypothesis, period int) []*hypothesis.Hypothesis {
	obsv := e.cfg.Observer
	seen := &e.seen
	seen.Reset()
	uniq := hs[:0]
	for _, h := range hs {
		if !seen.Insert(h) {
			uniq = append(uniq, h)
		} else if obsv != nil {
			obsv.OnHypothesisPruned(obs.HypothesisPruned{
				Period: period, Reason: "duplicate", Weight: h.Weight(),
			})
		}
	}
	sorted := e.sortByWeight(uniq)
	fr := &e.frontier
	fr.Reset()
	out := hs[:0]
	lighter, w := 0, -1
	for _, h := range sorted {
		if h.Weight() != w {
			// Every survivor so far is strictly lighter than h.
			w, lighter = h.Weight(), len(out)
		}
		if fr.Covers(&h.D, lighter) {
			if obsv != nil {
				obsv.OnHypothesisPruned(obs.HypothesisPruned{
					Period: period, Reason: "redundant", Weight: h.Weight(),
				})
			}
			continue
		}
		fr.Add(&h.D)
		out = append(out, h)
	}
	clear(sorted)
	clear(hs[len(out):cap(hs)])
	return out
}

// sortByWeight returns hs stably sorted by ascending weight: a
// counting sort over the integer weights into the engine's sort
// scratch, which the caller clears once done with the result.
func (e *Engine) sortByWeight(hs []*hypothesis.Hypothesis) []*hypothesis.Hypothesis {
	if len(hs) == 0 {
		return nil
	}
	lo, hi := hs[0].Weight(), hs[0].Weight()
	for _, h := range hs[1:] {
		lo, hi = min(lo, h.Weight()), max(hi, h.Weight())
	}
	// counts[w-lo] becomes the output position of the next hypothesis
	// of weight w.
	counts := grow(e.counts, hi-lo+1)
	clear(counts)
	for _, h := range hs {
		counts[h.Weight()-lo]++
	}
	pos := 0
	for i, c := range counts {
		counts[i], pos = pos, pos+c
	}
	out := grow(e.sorted, len(hs))
	for _, h := range hs {
		i := h.Weight() - lo
		out[counts[i]] = h
		counts[i]++
	}
	e.counts, e.sorted = counts, out
	return out
}

// grow returns s resliced to length n, reallocating only when its
// capacity is short (the contents are not preserved).
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
