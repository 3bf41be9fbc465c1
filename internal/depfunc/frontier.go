package depfunc

// Frontier is a set of dependency functions over one task set, kept as
// their packed entry words back to back in one slice. The engine's
// most-specific prune holds its survivors in one: Covers then runs its
// subset tests over contiguous memory instead of chasing each
// function's buffer pointer. The zero Frontier is empty and ready to
// use; Reset keeps the storage for reuse.
type Frontier struct {
	w []uint64
}

// Reset empties the frontier, retaining its storage.
func (f *Frontier) Reset() { f.w = f.w[:0] }

// Add appends a copy of d's entries; later changes to d do not reach
// the frontier.
func (f *Frontier) Add(d *DepFunc) { f.w = append(f.w, d.w[1:]...) }

// Covers reports whether one of the first k functions added is ⊑ d,
// that is, whether every one of its lanes is a subset of d's lane.
func (f *Frontier) Covers(d *DepFunc, k int) bool {
	x := d.w[1:]
	s := len(x)
next:
	for fw := f.w[:k*s]; len(fw) >= s; fw = fw[s:] {
		row := fw[:s]
		x := x[:len(row)]
		for i := range row {
			if row[i]&^x[i] != 0 {
				continue next
			}
		}
		return true
	}
	return false
}
