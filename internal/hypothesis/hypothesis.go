// Package hypothesis implements the learner's working hypotheses: a
// dependency function together with the sender/receiver assumptions
// made for the messages of the period currently being analyzed
// (Section 3.1 of Feng et al., DATE 2007).
package hypothesis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"github.com/blackbox-rt/modelgen/internal/depfunc"
	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// Hypothesis is one element of the learner's current set D_cur: a
// dependency function plus the (sender, receiver) pairs assumed for
// the messages analyzed so far in the current period. The model of
// computation allows at most one message per ordered pair per period,
// so an assumed pair must not be assumed again until the period ends.
type Hypothesis struct {
	// D is embedded by value: a hypothesis and its dependency-function
	// header are one object, so generalization's per-child cost is a
	// single (recycled) header instead of two heap allocations. Callers
	// that need a *depfunc.DepFunc take &h.D; the copy-on-write buffer
	// rules are unchanged.
	D depfunc.DepFunc

	// asm is the assumption set as a persistent cons list, newest pair
	// first, duplicate-free (Assume refuses an already-assumed pair).
	// Children extend their parent's list by one shared cell instead
	// of copying a map — the list is immutable, so sharing is safe and
	// generalization costs O(1) per child. The set stays small (assumptions
	// about dead pairs are forgotten every message), so the linear
	// membership scan beats a map's per-child copy by a wide margin.
	asm    *assumeNode
	acount int
	weight int

	// afp is the Zobrist fingerprint of the assumption set: the XOR
	// of Pair.Fingerprint over the assumed pairs, maintained
	// incrementally (XOR is self-inverse, so adding and removing a
	// pair are the same operation). Combined with the dependency
	// function's own fingerprint it gives the engine an O(1),
	// allocation-free dedup key where Key() built an O(t²) string.
	afp uint64

	// Provenance chain (see EnableProvenance): a persistent singly
	// linked list of the generalization steps that produced D, newest
	// first. Children share their parent's suffix, so recording is
	// O(changed entries) per step and O(1) extra work when cloning.
	prov   *provNode
	provOn bool

	// dnext chains hypotheses with colliding fingerprints inside a
	// Dedup set. Only the Dedup that most recently inserted h ever
	// traverses it (Insert always rewrites the link), so the field can
	// ride along in the header instead of forcing the dedup table to
	// allocate per-slot slices.
	dnext *Hypothesis
}

// assumeNode is one cell of the persistent assumption list.
type assumeNode struct {
	p    depfunc.Pair
	prev *assumeNode
}

// Step is one recorded generalization step of a hypothesis: the
// entry (I,J) that changed, its lattice transition Old→New, and the
// cause. Action is "assume" (message generalization; S,R is the
// candidate pair and Msg/MsgID locate the message), "relax"
// (end-of-period conditional test; Msg is -1) or "merge" (bounded
// least-upper-bound merge raised the entry by joining in the lighter
// operand that was folded away).
type Step struct {
	Period int
	Msg    int // message index within the period; -1 for end-of-period steps
	MsgID  string
	S, R   int // assumed (sender, receiver) pair; -1 when not applicable
	I, J   int // the dependency entry that changed
	Old    lattice.Value
	New    lattice.Value
	Action string
}

// StepCtx locates a generalization step in the run: the period, the
// message index within it (-1 at period end) and the message ID. It
// is threaded through Assume/Relax/Merge so recorded steps can name
// their cause; with provenance disabled it is ignored.
type StepCtx struct {
	Period int
	Msg    int
	MsgID  string

	// Arena, when non-nil, supplies the assumption cons cells and the
	// recycled headers that Assume and Merge would otherwise
	// heap-allocate. The engine owns one arena and resets it at the
	// period boundary (when every assumption list is cleared anyway);
	// the nil zero value falls back to plain allocation, so casual
	// callers and tests need not care.
	Arena *Arena
}

// provNode is one cons cell of the persistent provenance chain.
type provNode struct {
	step Step
	prev *provNode
}

// Format renders the step for humans, resolving task indices against
// ts:
//
//	period 2 msg 4 (m5): assume t1->t4: d(t1,t4): || => ->
//	period 2 end: relax: d(t1,t4): -> => ->?
func (s Step) Format(ts *depfunc.TaskSet) string {
	entry := fmt.Sprintf("d(%s,%s): %s => %s", ts.Name(s.I), ts.Name(s.J), s.Old, s.New)
	switch s.Action {
	case "assume":
		return fmt.Sprintf("period %d msg %d (%s): assume %s->%s: %s",
			s.Period, s.Msg, s.MsgID, ts.Name(s.S), ts.Name(s.R), entry)
	case "relax":
		return fmt.Sprintf("period %d end: relax: %s", s.Period, entry)
	case "merge":
		return fmt.Sprintf("period %d msg %d: merge: %s", s.Period, s.Msg, entry)
	default:
		return fmt.Sprintf("period %d: %s: %s", s.Period, s.Action, entry)
	}
}

// Bottom returns the globally most specific hypothesis d⊥ with no
// assumptions.
func Bottom(ts *depfunc.TaskSet) *Hypothesis {
	return &Hypothesis{D: *depfunc.Bottom(ts)}
}

// FromDepFunc wraps an existing dependency function (cloned) in a
// hypothesis with no assumptions.
func FromDepFunc(d *depfunc.DepFunc) *Hypothesis {
	h := &Hypothesis{weight: d.Weight()}
	d.CloneInto(&h.D)
	return h
}

// Weight returns the cached Definition-8 weight of the hypothesis.
func (h *Hypothesis) Weight() int { return h.weight }

// Fingerprint returns the 64-bit fingerprint of the hypothesis state
// (dependency function plus assumption set), the O(1) counterpart of
// Key. Unequal fingerprints prove unequal states; equal fingerprints
// must be confirmed with SameState before unifying (64-bit collisions
// exist in principle).
func (h *Hypothesis) Fingerprint() uint64 { return h.D.Fingerprint() ^ h.afp }

// SameState reports whether two hypotheses have identical dependency
// functions and identical assumption sets — the equality that
// Fingerprint approximates and the engine's dedup sites confirm on a
// fingerprint hit.
func (h *Hypothesis) SameState(other *Hypothesis) bool {
	if h.acount != other.acount || !h.D.Equal(&other.D) {
		return false
	}
	// Equal sizes and no duplicates: h ⊆ other suffices.
	for n := h.asm; n != nil; n = n.prev {
		if !other.Assumed(n.p) {
			return false
		}
	}
	return true
}

// EnableProvenance switches on step recording for h and every
// hypothesis derived from it. Recording costs one small allocation
// per changed entry; the default-off path allocates nothing.
func (h *Hypothesis) EnableProvenance() { h.provOn = true }

// ProvenanceEnabled reports whether the hypothesis records steps.
func (h *Hypothesis) ProvenanceEnabled() bool { return h.provOn }

// Provenance materializes the recorded derivation chain, oldest step
// first. It is nil when recording is disabled or nothing changed.
func (h *Hypothesis) Provenance() []Step {
	n := 0
	for p := h.prov; p != nil; p = p.prev {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]Step, n)
	for p := h.prov; p != nil; p = p.prev {
		n--
		out[n] = p.step
	}
	return out
}

// Assumed reports whether the ordered pair has already been assumed
// for a message in the current period.
func (h *Hypothesis) Assumed(p depfunc.Pair) bool {
	for n := h.asm; n != nil; n = n.prev {
		if n.p == p {
			return true
		}
	}
	return false
}

// AssumptionCount returns the number of pairs assumed this period.
func (h *Hypothesis) AssumptionCount() int { return h.acount }

// AssumptionBits writes the assumption set into dst as an n²-bit
// set over the n tasks, bit S·n+R for each assumed pair, and returns
// it: ⌈n²/64⌉ words, reusing dst's storage when it is large enough.
// Two sets over the same tasks are then nested exactly when their
// words are.
func (h *Hypothesis) AssumptionBits(dst []uint64) []uint64 {
	n := h.D.N()
	nw := (n*n + 63) / 64
	if cap(dst) < nw {
		dst = make([]uint64, nw)
	}
	dst = dst[:nw]
	clear(dst)
	for c := h.asm; c != nil; c = c.prev {
		b := c.p.S*n + c.p.R
		dst[b/64] |= 1 << (b % 64)
	}
	return dst
}

// Release returns the hypothesis's matrix buffer to the depfunc
// buffer arena and the header itself to ar's freelist (a nil ar lets
// the garbage collector have it). The depfunc.Release aliasing rules
// apply: only release hypotheses with no live alias (in particular
// none held by a dedup set, a worklist or an escaped result). A second
// Release on the same header is a no-op: the embedded matrix reports
// whether it actually held a buffer, which guards the freelist against
// double pushes. ar must belong to the calling goroutine.
func (h *Hypothesis) Release(ar *Arena) {
	if !h.D.Release() {
		return
	}
	*h = Hypothesis{}
	if ar != nil {
		ar.free = append(ar.free, h)
	}
}

// Assume returns a new hypothesis extending h with the assumption that
// the current message was sent on pair p, generalizing the dependency
// function minimally: the forward entry (s,r) is joined with fwd and
// the backward entry (r,s) with bwd. The stamp values are chosen by
// the caller (→/→? and ←/←? depending on execution history). It
// returns nil if p was already assumed this period (condition 3 of the
// generalization step). h is unchanged. ctx locates the message for
// provenance recording and is ignored when recording is off.
//
// The child shares h's matrix copy-on-write and extends the
// assumption list by one cell, so a child whose joins change nothing
// costs two small allocations and no matrix copy.
func (h *Hypothesis) Assume(p depfunc.Pair, fwd, bwd lattice.Value, ctx StepCtx) *Hypothesis {
	if h.Assumed(p) {
		return nil
	}
	// The header is zeroed, so setting the live fields one by one
	// avoids building and copying a whole struct literal.
	child := ctx.Arena.header()
	child.asm = ctx.Arena.node(p, h.asm)
	child.acount = h.acount + 1
	child.weight = h.weight
	child.afp = h.afp ^ p.Fingerprint()
	child.prov, child.provOn = h.prov, h.provOn
	h.D.ShareInto(&child.D)
	child.joinEntry(p, p.S, p.R, fwd, ctx)
	child.joinEntry(p, p.R, p.S, bwd, ctx)
	return child
}

func (h *Hypothesis) joinEntry(p depfunc.Pair, i, j int, v lattice.Value, ctx StepCtx) {
	old := h.D.At(i, j)
	if h.D.JoinAt(i, j, v) {
		nw := h.D.At(i, j)
		h.weight += lattice.Distance(nw) - lattice.Distance(old)
		if h.provOn {
			h.prov = &provNode{step: Step{
				Period: ctx.Period, Msg: ctx.Msg, MsgID: ctx.MsgID,
				S: p.S, R: p.R, I: i, J: j, Old: old, New: nw, Action: "assume",
			}, prev: h.prov}
		}
	}
}

// ClearAssumptions drops the per-period assumption set (the first step
// of the paper's end-of-period post-processing).
func (h *Hypothesis) ClearAssumptions() {
	h.asm = nil
	h.acount = 0
	h.afp = 0
}

// RetainAssumptions drops every assumed pair for which keep returns
// false. The learner uses this to forget assumptions about pairs that
// cannot occur in any remaining message's candidate set this period:
// the at-most-one-message-per-pair rule can never consult them again,
// so forgetting them preserves exactness while letting hypotheses that
// differ only in dead assumptions deduplicate.
func (h *Hypothesis) RetainAssumptions(keep func(depfunc.Pair) bool, ar *Arena) {
	// The common case keeps everything; detect it before rebuilding
	// (the list may be shared with relatives, so dropping a pair
	// rebuilds the kept cells rather than splicing in place).
	drop := false
	for n := h.asm; n != nil; n = n.prev {
		if !keep(n.p) {
			drop = true
			break
		}
	}
	if !drop {
		return
	}
	var kept *assumeNode
	count := 0
	for n := h.asm; n != nil; n = n.prev {
		if keep(n.p) {
			kept = ar.node(n.p, kept)
			count++
		} else {
			h.afp ^= n.p.Fingerprint()
		}
	}
	h.asm = kept
	h.acount = count
}

// Relax applies the end-of-period conditional-dependency test: every
// unconditional entry (→, ←, ↔) whose implication the period violates
// — its lane is set in mask, built by depfunc.Violations from the
// period's executed-task set — is generalized minimally to its
// conditional counterpart. It returns the number of relaxed entries.
// ctx supplies the period for provenance recording (Msg is forced to
// -1: relaxation is an end-of-period step).
func (h *Hypothesis) Relax(mask depfunc.ViolationMask, ctx StepCtx) int {
	var onRelax func(i, j int, old, new lattice.Value)
	if h.provOn {
		onRelax = func(i, j int, old, new lattice.Value) {
			h.prov = &provNode{step: Step{
				Period: ctx.Period, Msg: -1, S: -1, R: -1,
				I: i, J: j, Old: old, New: new, Action: "relax",
			}, prev: h.prov}
		}
	}
	n := h.D.RelaxMasked(mask, onRelax)
	if n > 0 {
		h.weight = h.D.Weight()
	}
	return n
}

// Merge returns the least-upper-bound merge of h and other used by the
// bounded heuristic: the dependency functions are joined pointwise and
// the assumption sets intersected. Intersection (rather than union)
// keeps the merge sound: a pair assumed by only one lineage must stay
// assumable, since the other lineage's branches may still need it for
// a later message; re-assuming a pair can only repeat a join, never
// under-generalize. Both operands are unchanged.
//
// Provenance: the merged hypothesis continues the receiver's chain
// (the heuristic merges the two lightest hypotheses as a.Merge(b), so
// the base lineage is the lighter operand) and records one "merge"
// step per entry the join raised above the receiver's value. The
// folded-away operand's own history is not retained — the chain
// explains the surviving table, not every dead branch.
func (h *Hypothesis) Merge(other *Hypothesis, ctx StepCtx) *Hypothesis {
	asm, count, afp := h.intersect(other, ctx.Arena)
	// Share h's matrix copy-on-write; the join only materializes a
	// copy if other actually raises an entry.
	m := ctx.Arena.header()
	m.asm, m.acount, m.afp, m.weight = asm, count, afp, h.weight
	m.prov, m.provOn = h.prov, h.provOn || other.provOn
	h.D.ShareInto(&m.D)
	// Most bounded merges fold a hypothesis into one that already
	// covers it; the receiver's cached weight then stays exact and the
	// full recount is skipped.
	if m.D.JoinWith(&other.D) {
		m.weight = m.D.Weight()
	}
	if m.provOn {
		n := m.D.N()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				old, nw := h.D.At(i, j), m.D.At(i, j)
				if old != nw {
					m.prov = &provNode{step: Step{
						Period: ctx.Period, Msg: ctx.Msg, MsgID: ctx.MsgID,
						S: -1, R: -1, I: i, J: j, Old: old, New: nw, Action: "merge",
					}, prev: m.prov}
				}
			}
		}
	}
	return m
}

// intersect returns the assumption list, count and fingerprint of the
// pairs both h and other assumed. The list is immutable, so the part
// of h's list older than the oldest pair other lacks is reused as is;
// only kept cells newer than that are copied. When other assumed every
// pair of h (the common case in bounded merging) nothing is copied.
func (h *Hypothesis) intersect(other *Hypothesis, ar *Arena) (*assumeNode, int, uint64) {
	var cut *assumeNode // the oldest cell other lacks
	for n := h.asm; n != nil; n = n.prev {
		if !other.Assumed(n.p) {
			cut = n
		}
	}
	if cut == nil {
		return h.asm, h.acount, h.afp
	}
	asm, count, afp := cut.prev, h.acount, h.afp
	for n := h.asm; n != cut.prev; n = n.prev {
		if n == cut || !other.Assumed(n.p) {
			count--
			afp ^= n.p.Fingerprint()
		} else {
			asm = ar.node(n.p, asm)
		}
	}
	return asm, count, afp
}

// Clone returns a deep copy of the dependency function (the immutable
// assumption list and provenance chain are shared).
func (h *Hypothesis) Clone() *Hypothesis {
	nh := &Hypothesis{asm: h.asm, acount: h.acount, weight: h.weight, afp: h.afp, prov: h.prov, provOn: h.provOn}
	h.D.CloneInto(&nh.D)
	return nh
}

// Key returns a canonical encoding of the dependency function together
// with the assumption set, used to deduplicate hypotheses that would
// behave identically for the remainder of the period.
func (h *Hypothesis) Key() string {
	if h.acount == 0 {
		return h.D.Key()
	}
	pairs := make([]depfunc.Pair, 0, h.acount)
	for n := h.asm; n != nil; n = n.prev {
		pairs = append(pairs, n.p)
	}
	sort.Slice(pairs, func(a, b int) bool {
		if pairs[a].S != pairs[b].S {
			return pairs[a].S < pairs[b].S
		}
		return pairs[a].R < pairs[b].R
	})
	var sb strings.Builder
	sb.WriteString(h.D.Key())
	for _, p := range pairs {
		sb.WriteByte('|')
		sb.WriteString(strconv.Itoa(p.S))
		sb.WriteByte(',')
		sb.WriteString(strconv.Itoa(p.R))
	}
	return sb.String()
}
