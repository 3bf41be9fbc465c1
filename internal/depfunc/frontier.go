package depfunc

// Frontier is a set of rows, each a dependency function's packed entry
// words followed by a caller-supplied tail of extra words. The
// engine's prunes hold their survivors in one. The period-end prune
// adds no tail; the in-period subsumption appends each hypothesis's
// assumption bitset, so one word-wise subset test decides both
// D(h1) ⊑ D(h2) and asm(h1) ⊆ asm(h2). Every row of one frontier must
// have the same length.
//
// The rows are stored back to back in one slice, and their first
// words once more in a slice of their own. The first word alone
// rejects nearly every row the prunes test (97% on the lite case
// study), so Covers scans that dense column and reads a whole row only
// when its first word passes. The zero Frontier is empty and ready to
// use; Reset keeps the storage for reuse.
type Frontier struct {
	lead  []uint64
	w     []uint64
	probe []uint64
}

// Reset empties the frontier, retaining its storage.
func (f *Frontier) Reset() { f.lead, f.w = f.lead[:0], f.w[:0] }

// Add appends a row holding a copy of d's entries and of tail; later
// changes to either do not reach the frontier.
func (f *Frontier) Add(d *DepFunc, tail []uint64) {
	f.lead = append(f.lead, d.w[1])
	f.w = append(f.w, d.w[1:]...)
	f.w = append(f.w, tail...)
}

// Covers reports whether one of the first k rows added is a word-wise
// subset of the row (d, tail): every lane of its function a subset of
// d's lane, so that function is ⊑ d, and every tail word a subset of
// the matching word of tail.
func (f *Frontier) Covers(d *DepFunc, tail []uint64, k int) bool {
	f.probe = append(append(f.probe[:0], d.w[1:]...), tail...)
	x := f.probe
	s := len(x)
	x0 := x[0]
next:
	for j, l := range f.lead[:k] {
		if l&^x0 != 0 {
			continue
		}
		row := f.w[j*s+1 : j*s+s]
		x := x[1 : len(row)+1]
		for i := range row {
			if row[i]&^x[i] != 0 {
				continue next
			}
		}
		return true
	}
	return false
}
