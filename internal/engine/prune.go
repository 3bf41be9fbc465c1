package engine

import "github.com/blackbox-rt/modelgen/internal/hypothesis"

// pruneMostSpecific unifies equal hypotheses and removes redundant
// ones: h is redundant iff some other hypothesis is strictly more
// specific (Section 3.1 post-processing). The survivors come back in
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
func (e *Engine) pruneMostSpecific(hs []*hypothesis.Hypothesis) []*hypothesis.Hypothesis {
	seen := &e.seen
	seen.Reset()
	uniq := hs[:0]
	for _, h := range hs {
		if !seen.Insert(h) {
			uniq = append(uniq, h)
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
		if fr.Covers(&h.D, nil, lighter) {
			continue
		}
		fr.Add(&h.D, nil)
		out = append(out, h)
	}
	clear(sorted)
	clear(hs[len(out):cap(hs)])
	return out
}

// subsume drops, from one message's deduplicated working set, every h2
// that another member h1 dominates: D(h1) ⊑ D(h2) and asm(h1) ⊆
// asm(h2). Whatever h2 can still become by the period end, h1 can
// become something at least as specific, so the period-end prune would
// remove or unify h2's descendants anyway (THEORY.md §3a). Survivors
// keep their input order, compacted into hs's backing array with the
// tail cleared; each dropped hypothesis is counted in e.subsumed and
// released into the engine's arena.
//
// Dedup has unified equal states, so a dominator is strictly lighter,
// or equally heavy with strictly fewer assumptions: it comes strictly
// before h2 in (weight, assumption count) order. The scan visits that
// order and tests each hypothesis only against the survivors of
// strictly earlier keys; as in pruneMostSpecific, a dominator that was
// itself dropped has a surviving dominator, which then dominates h2 by
// transitivity. One frontier row per survivor holds its packed lanes
// followed by its assumption bitset, so one word-wise subset test
// decides both halves of the rule.
func (e *Engine) subsume(hs []*hypothesis.Hypothesis) []*hypothesis.Hypothesis {
	if len(hs) < 2 {
		return hs
	}
	lo, hi, amax := hs[0].Weight(), hs[0].Weight(), 0
	for _, h := range hs {
		lo, hi = min(lo, h.Weight()), max(hi, h.Weight())
		amax = max(amax, h.AssumptionCount())
	}
	key := func(h *hypothesis.Hypothesis) int {
		return (h.Weight()-lo)*(amax+1) + h.AssumptionCount()
	}
	// A counting sort of input positions by key: counts[k] becomes the
	// output position of the next hypothesis with key k.
	counts := grow(e.counts, (hi-lo+1)*(amax+1))
	clear(counts)
	for _, h := range hs {
		counts[key(h)]++
	}
	pos := 0
	for i, c := range counts {
		counts[i], pos = pos, pos+c
	}
	order := grow(e.order, len(hs))
	for i, h := range hs {
		k := key(h)
		order[counts[k]] = i
		counts[k]++
	}
	drop := grow(e.drop, len(hs))
	clear(drop)
	fr := &e.frontier
	fr.Reset()
	kept, earlier, last := 0, 0, -1
	for _, i := range order {
		h := hs[i]
		if k := key(h); k != last {
			// Every survivor so far has a strictly smaller key.
			last, earlier = k, kept
		}
		e.asmBits = h.AssumptionBits(e.asmBits)
		if fr.Covers(&h.D, e.asmBits, earlier) {
			drop[i] = true
			continue
		}
		fr.Add(&h.D, e.asmBits)
		kept++
	}
	e.counts, e.order, e.drop = counts, order, drop
	if kept == len(hs) {
		return hs
	}
	e.subsumed += len(hs) - kept
	ar := &e.arena
	out := hs[:0]
	for i, h := range hs {
		if !drop[i] {
			out = append(out, h)
			continue
		}
		// Referenced by nothing but the dedup set, which no later
		// equality check consults before its next Reset.
		h.Release(ar)
	}
	clear(hs[len(out):])
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
