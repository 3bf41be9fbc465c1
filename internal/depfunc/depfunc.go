package depfunc

import (
	"fmt"
	"math/bits"
	"strings"
	"sync/atomic"

	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// laneMask selects one packed lane.
const laneMask = (1 << lattice.PackedBits) - 1

// DepFunc is a dependency function d : T×T → V stored as a flat
// row-major matrix over the task set's dense indices. The diagonal is
// always ‖ (a task has no dependency on itself). Off-diagonal entries
// (i, j) and (j, i) are independent: the generalization algorithm
// installs mirrored values (→ at the sender row, ← at the receiver
// row) but end-of-period relaxation may later generalize the two sides
// asymmetrically, exactly as in the paper's tables d81–d85.
//
// Entries are packed three bits apiece, lattice.PackedLanes per uint64
// word, in the characteristic encoding of internal/lattice/packed.go,
// so Join/Meet/Leq/Equal/Weight run word-parallel instead of per-cell.
// Matrices additionally share their backing buffer copy-on-write: see
// CloneShared, Release and arena.go for the ownership rules.
type DepFunc struct {
	ts *TaskSet
	// w backs the matrix: w[0] is the buffer's atomic reference count
	// (for copy-on-write sharing), w[1:] hold the packed entries in
	// row-major lane order. Lanes past n² are always zero.
	w []uint64
	// fp is the Zobrist fingerprint of the entries, maintained
	// incrementally by every mutation (see fingerprint.go). Invariant:
	// fp == d.freshFingerprint().
	fp uint64
}

// words returns the number of lane words for an n-task matrix.
func words(n int) int { return lattice.PackedWords(n * n) }

// Bottom returns the most specific hypothesis d⊥: all entries ‖.
func Bottom(ts *TaskSet) *DepFunc {
	d := &DepFunc{ts: ts, w: acquire(1+words(ts.Len()), true)}
	d.fp = d.freshFingerprint()
	return d
}

// Top returns the least specific hypothesis d⊤: all off-diagonal
// entries ↔?.
func Top(ts *TaskSet) *DepFunc {
	d := Bottom(ts)
	n := ts.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				d.setIdx(i*n+j, lattice.Top)
			}
		}
	}
	return d
}

// TaskSet returns the task set the function is defined over.
func (d *DepFunc) TaskSet() *TaskSet { return d.ts }

// N returns the number of tasks.
func (d *DepFunc) N() int { return d.ts.Len() }

// codeAt returns the packed code of flat index idx.
func (d *DepFunc) codeAt(idx int) uint64 {
	return d.w[1+idx/lattice.PackedLanes] >> (uint(idx%lattice.PackedLanes) * lattice.PackedBits) & laneMask
}

// At returns the dependency value at (i, j) by task index.
func (d *DepFunc) At(i, j int) lattice.Value {
	return lattice.UnpackValue(d.codeAt(i*d.ts.Len() + j))
}

// Set assigns the dependency value at (i, j). Setting a diagonal entry
// to anything but ‖ panics: it would violate the representation
// invariant.
func (d *DepFunc) Set(i, j int, v lattice.Value) {
	if i == j && v != lattice.Par {
		panic(fmt.Sprintf("depfunc: diagonal entry (%d,%d) must be ||", i, j))
	}
	d.setIdx(i*d.ts.Len()+j, v)
}

// setIdx assigns a flat index, keeping the fingerprint invariant. All
// entry mutations funnel through it (or through the word loops of
// JoinWith/Meet/RelaxMasked, which maintain the same invariant per
// changed lane).
func (d *DepFunc) setIdx(idx int, v lattice.Value) {
	wi := 1 + idx/lattice.PackedLanes
	sh := uint(idx%lattice.PackedLanes) * lattice.PackedBits
	old := d.w[wi] >> sh & laneMask
	nc := lattice.PackValue(v)
	if nc == old {
		return
	}
	d.ensureOwned()
	d.fp ^= entryHash(idx, lattice.UnpackValue(old)) ^ entryHash(idx, v)
	d.w[wi] = d.w[wi]&^(laneMask<<sh) | nc<<sh
}

// JoinAt joins v into the entry at (i, j), returning true if the entry
// changed. This is the "generalize only as much as necessary" step. In
// the packed encoding the single-entry join is a bitwise OR of codes.
func (d *DepFunc) JoinAt(i, j int, v lattice.Value) bool {
	idx := i*d.ts.Len() + j
	wi := 1 + idx/lattice.PackedLanes
	sh := uint(idx%lattice.PackedLanes) * lattice.PackedBits
	old := d.w[wi] >> sh & laneMask
	nc := old | lattice.PackValue(v)
	if nc == old {
		return false
	}
	if i == j {
		panic(fmt.Sprintf("depfunc: diagonal entry (%d,%d) must be ||", i, j))
	}
	d.ensureOwned()
	d.fp ^= entryHash(idx, lattice.UnpackValue(old)) ^ entryHash(idx, lattice.UnpackValue(nc))
	d.w[wi] |= nc << sh
	return true
}

// Get returns the dependency value between two named tasks.
func (d *DepFunc) Get(t1, t2 string) (lattice.Value, error) {
	i, j := d.ts.Index(t1), d.ts.Index(t2)
	if i < 0 {
		return lattice.Par, fmt.Errorf("depfunc: unknown task %q", t1)
	}
	if j < 0 {
		return lattice.Par, fmt.Errorf("depfunc: unknown task %q", t2)
	}
	return d.At(i, j), nil
}

// MustGet is Get for known-good task names; it panics on error.
func (d *DepFunc) MustGet(t1, t2 string) lattice.Value {
	v, err := d.Get(t1, t2)
	if err != nil {
		panic(err)
	}
	return v
}

// Clone returns a deep copy sharing the (immutable) task set. Use it
// when the copy escapes the engine (snapshots, results); inside the
// generalization loop prefer CloneShared.
func (d *DepFunc) Clone() *DepFunc {
	nd := new(DepFunc)
	d.CloneInto(nd)
	return nd
}

// CloneInto deep-copies d into dst without allocating a header (the
// buffer still comes from the arena). Like ShareInto, dst must not
// hold a live buffer.
func (d *DepFunc) CloneInto(dst *DepFunc) {
	nw := acquire(len(d.w), false)
	copy(nw[1:], d.w[1:])
	*dst = DepFunc{ts: d.ts, w: nw, fp: d.fp}
}

// CloneShared returns a copy that shares d's backing buffer
// copy-on-write: the copy costs one header allocation and an atomic
// increment, and the buffer is only duplicated if either alias is
// later mutated. Safe to call concurrently from multiple goroutines.
func (d *DepFunc) CloneShared() *DepFunc {
	nd := new(DepFunc)
	d.ShareInto(nd)
	return nd
}

// ShareInto initializes dst as a copy-on-write alias of d without
// allocating a header (dst must not hold a live buffer — any previous
// buffer interest is leaked, not released). The hypothesis layer uses
// it to fill recycled, embedded headers.
func (d *DepFunc) ShareInto(dst *DepFunc) {
	atomic.AddUint64(&d.w[0], 1)
	*dst = DepFunc{ts: d.ts, w: d.w, fp: d.fp}
}

// Release returns d's interest in the backing buffer to the arena; the
// buffer is recycled when the last sharer releases it. Only call it on
// matrices that provably have no other alias outside the copy-on-write
// scheme (in particular, never on a matrix still referenced by a dedup
// map or an escaped result). After Release the DepFunc must not be
// used; uses panic rather than corrupt recycled memory. It reports
// whether this call released a live buffer (false on a double or nil
// release), which lets the hypothesis layer make its own header
// recycling idempotent.
func (d *DepFunc) Release() bool {
	if d == nil || d.w == nil {
		return false
	}
	b := d.w
	d.w = nil
	if atomic.AddUint64(&b[0], ^uint64(0)) == 0 {
		releaseBuf(b)
	}
	return true
}

// ensureOwned makes d the sole owner of its buffer, duplicating it
// first if it is shared. Every mutation path calls it before writing.
// Only the owner of d may mutate it, so a refcount of 1 cannot be
// raced upward by another goroutine.
func (d *DepFunc) ensureOwned() {
	if atomic.LoadUint64(&d.w[0]) == 1 {
		return
	}
	nw := acquire(len(d.w), false)
	copy(nw[1:], d.w[1:])
	old := d.w
	d.w = nw
	if atomic.AddUint64(&old[0], ^uint64(0)) == 0 {
		// Another sharer released between the load and the decrement;
		// the buffer is ours to recycle after all.
		releaseBuf(old)
	}
}

// Equal reports whether two dependency functions over the same task
// set have identical entries.
func (d *DepFunc) Equal(other *DepFunc) bool {
	if d.ts != other.ts && !d.ts.Equal(other.ts) {
		return false
	}
	if d.fp != other.fp {
		// Different fingerprints prove different entries.
		return false
	}
	if &d.w[0] == &other.w[0] {
		return true // shared buffer
	}
	for i, w := range d.w[1:] {
		if w != other.w[1+i] {
			return false
		}
	}
	return true
}

// Leq reports the pointwise partial order ⊑D of Definition 5:
// d ⊑ other iff every entry of d is ⊑ the corresponding entry of
// other. In the packed encoding this is a word-wise subset test.
func (d *DepFunc) Leq(other *DepFunc) bool {
	for i, w := range d.w[1:] {
		if !lattice.LeqWords(w, other.w[1+i]) {
			return false
		}
	}
	return true
}

// Lt reports strict pointwise order.
func (d *DepFunc) Lt(other *DepFunc) bool {
	return d.Leq(other) && !d.Equal(other)
}

// Join returns the pointwise least upper bound of d and other as a new
// function. Both operands are unchanged.
func (d *DepFunc) Join(other *DepFunc) *DepFunc {
	out := d.Clone()
	out.JoinWith(other)
	return out
}

// JoinWith joins other into d in place, a word at a time (join is
// bitwise OR in the packed encoding). The fingerprint is updated only
// for the lanes that actually changed, and a shared buffer is only
// duplicated once the first change lands — so the converged steady
// state, joining a function that adds nothing, does no hash work and
// no copying at all. It reports whether any entry changed, so callers
// caching a derived quantity (the hypothesis weight) can skip
// recomputing it on the no-change path.
func (d *DepFunc) JoinWith(other *DepFunc) bool {
	ow := other.w[1:]
	owned := false
	for i := range ow {
		old := d.w[1+i]
		nw := old | ow[i]
		if nw == old {
			continue
		}
		if !owned {
			d.ensureOwned()
			owned = true
		}
		d.fp ^= laneDiffHash(i*lattice.PackedLanes, old, nw)
		d.w[1+i] = nw
	}
	return owned
}

// Meet returns the pointwise greatest lower bound as a new function.
func (d *DepFunc) Meet(other *DepFunc) *DepFunc {
	out := d.Clone()
	dw := out.w[1:]
	ow := other.w[1:]
	for i, old := range dw {
		nw := lattice.MeetWords(old, ow[i])
		if nw == old {
			continue
		}
		out.fp ^= laneDiffHash(i*lattice.PackedLanes, old, nw)
		dw[i] = nw
	}
	return out
}

// laneDiffHash returns the fingerprint delta for replacing word old by
// word nw whose first lane holds flat index base: the XOR of the entry
// hashes of every changed lane, old and new. Cost is proportional to
// the number of changed lanes, not the word width.
func laneDiffHash(base int, old, nw uint64) uint64 {
	var h uint64
	for diff := old ^ nw; diff != 0; {
		sh := uint(bits.TrailingZeros64(diff)) / lattice.PackedBits * lattice.PackedBits
		idx := base + int(sh)/lattice.PackedBits
		h ^= entryHash(idx, lattice.UnpackValue(old>>sh&laneMask)) ^
			entryHash(idx, lattice.UnpackValue(nw>>sh&laneMask))
		diff &^= laneMask << sh
	}
	return h
}

// Weight is the weight function of Definition 8: the sum over all
// ordered task pairs of the lattice distance of the entry. More
// general hypotheses weigh more. Word-parallel: four popcounts per 21
// entries (unused lanes are zero and contribute nothing).
func (d *DepFunc) Weight() int {
	wt := 0
	for _, w := range d.w[1:] {
		wt += lattice.WeightWord(w)
	}
	return wt
}

// Key returns a compact canonical encoding of the matrix, usable as a
// map key for deduplication.
func (d *DepFunc) Key() string {
	n2 := d.ts.Len() * d.ts.Len()
	b := make([]byte, n2)
	for idx := 0; idx < n2; idx++ {
		b[idx] = '0' + byte(lattice.UnpackValue(d.codeAt(idx)))
	}
	return string(b)
}

// CompareKey orders d and other as strings.Compare(d.Key(), other.Key())
// does, without building either string: the first differing word
// decides, and within it the lowest differing lane. PackValue is
// monotone and lanes past n² are zero, so comparing lane codes is
// comparing Key bytes. Functions over task sets of different sizes
// fall back to comparing the strings.
func (d *DepFunc) CompareKey(other *DepFunc) int {
	if d.ts.Len() != other.ts.Len() {
		return strings.Compare(d.Key(), other.Key())
	}
	ow := other.w[1:]
	for i, a := range d.w[1:] {
		b := ow[i]
		if a == b {
			continue
		}
		sh := uint(bits.TrailingZeros64(a^b)) / lattice.PackedBits * lattice.PackedBits
		if a>>sh&laneMask < b>>sh&laneMask {
			return -1
		}
		return 1
	}
	return 0
}

// JoinAll returns the pointwise least upper bound of all the given
// functions (the paper's ⊔D* used as the final result when the
// algorithm does not converge). It returns nil for an empty slice.
func JoinAll(ds []*DepFunc) *DepFunc {
	if len(ds) == 0 {
		return nil
	}
	out := ds[0].Clone()
	for _, d := range ds[1:] {
		out.JoinWith(d)
	}
	return out
}

// Table renders the dependency function as the square table layout
// used throughout the paper, e.g.
//
//	      t1   t2   t3   t4
//	t1    ||   ->?  ->?  ->
//	t2    <-   ||   ||   ->
//	t3    <-   ||   ||   ->
//	t4    <-   <-?  <-?  ||
func (d *DepFunc) Table() string {
	n := d.ts.Len()
	colw := 6 // widest value "<->?" plus separating spaces
	for _, name := range d.ts.names {
		if len(name)+2 > colw {
			colw = len(name) + 2
		}
	}
	// Every cell is padded to colw (no name or value is wider), so this
	// bound holds the whole table and the builder allocates once.
	var sb strings.Builder
	sb.Grow((n + 1) * ((n+1)*colw + 1))
	// A row is its cells padded to colw with the trailing spaces
	// trimmed. Spaces are owed, not written, until a non-space byte
	// follows them, so the row's trailing run is simply never written.
	owed := 0
	cell := func(c string) {
		core := strings.TrimRight(c, " ")
		if core != "" {
			writeSpaces(&sb, owed)
			sb.WriteString(core)
			owed = 0
		}
		owed += len(c) - len(core) + max(colw-len(c), 0)
	}
	endRow := func() {
		sb.WriteByte('\n')
		owed = 0
	}
	cell("")
	for _, name := range d.ts.names {
		cell(name)
	}
	endRow()
	for i := 0; i < n; i++ {
		cell(d.ts.names[i])
		for j := 0; j < n; j++ {
			cell(d.At(i, j).String())
		}
		endRow()
	}
	return sb.String()
}

// spaces is a run writeSpaces copies from.
const spaces = "                                                                "

// writeSpaces writes k spaces to sb.
func writeSpaces(sb *strings.Builder, k int) {
	for k > len(spaces) {
		sb.WriteString(spaces)
		k -= len(spaces)
	}
	sb.WriteString(spaces[:k])
}

// String returns the table rendering.
func (d *DepFunc) String() string { return d.Table() }

// ParseTable parses the Table rendering back into a DepFunc. The first
// line must hold the task names; each following line a task name and N
// dependency values.
func ParseTable(s string) (*DepFunc, error) {
	lines := make([]string, 0, 8)
	for _, ln := range strings.Split(s, "\n") {
		if strings.TrimSpace(ln) != "" {
			lines = append(lines, ln)
		}
	}
	if len(lines) < 2 {
		return nil, fmt.Errorf("depfunc: table too short")
	}
	names := strings.Fields(lines[0])
	ts, err := NewTaskSet(names)
	if err != nil {
		return nil, err
	}
	if len(lines)-1 != len(names) {
		return nil, fmt.Errorf("depfunc: table has %d rows, want %d", len(lines)-1, len(names))
	}
	d := Bottom(ts)
	for r, ln := range lines[1:] {
		fields := strings.Fields(ln)
		if len(fields) != len(names)+1 {
			return nil, fmt.Errorf("depfunc: row %d has %d fields, want %d", r, len(fields), len(names)+1)
		}
		i := ts.Index(fields[0])
		if i < 0 {
			return nil, fmt.Errorf("depfunc: row task %q not in header", fields[0])
		}
		for j, f := range fields[1:] {
			v, err := lattice.ParseValue(f)
			if err != nil {
				return nil, fmt.Errorf("depfunc: row %q column %q: %w", fields[0], names[j], err)
			}
			if i == j && v != lattice.Par {
				return nil, fmt.Errorf("depfunc: diagonal entry (%s,%s) must be ||", fields[0], names[j])
			}
			d.Set(i, j, v)
		}
	}
	return d, nil
}

// MustParseTable is ParseTable for literal known-good tables; it
// panics on error.
func MustParseTable(s string) *DepFunc {
	d, err := ParseTable(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Entries calls fn for every off-diagonal entry.
func (d *DepFunc) Entries(fn func(i, j int, v lattice.Value)) {
	n := d.ts.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				fn(i, j, d.At(i, j))
			}
		}
	}
}
