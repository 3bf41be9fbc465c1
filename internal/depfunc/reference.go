package depfunc

import (
	"fmt"

	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// Reference is the retained scalar implementation of a dependency
// function: one lattice.Value per cell, table-driven per-cell lattice
// operations, and the same incremental Zobrist fingerprint scheme as
// DepFunc. It is the oracle the differential and fuzz tiers shadow the
// packed word-parallel kernel against — any divergence in entries,
// fingerprints, weights or keys between a DepFunc and a Reference
// driven through the same mutation sequence is a bug in one of the
// kernels. It is not used on any production path.
type Reference struct {
	ts *TaskSet
	v  []lattice.Value
	fp uint64
}

// NewReference returns the scalar bottom matrix (all entries ‖).
func NewReference(ts *TaskSet) *Reference {
	n := ts.Len()
	v := make([]lattice.Value, n*n)
	return &Reference{ts: ts, v: v, fp: freshFingerprint(v)}
}

// RefOf converts a packed matrix to its scalar equivalent.
func RefOf(d *DepFunc) *Reference {
	r := NewReference(d.ts)
	n := d.ts.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			r.setIdx(i*n+j, d.At(i, j))
		}
	}
	return r
}

// TaskSet returns the task set the function is defined over.
func (r *Reference) TaskSet() *TaskSet { return r.ts }

// At returns the dependency value at (i, j).
func (r *Reference) At(i, j int) lattice.Value { return r.v[i*r.ts.Len()+j] }

// Set assigns the dependency value at (i, j).
func (r *Reference) Set(i, j int, v lattice.Value) {
	if i == j && v != lattice.Par {
		panic(fmt.Sprintf("depfunc: diagonal entry (%d,%d) must be ||", i, j))
	}
	r.setIdx(i*r.ts.Len()+j, v)
}

func (r *Reference) setIdx(idx int, v lattice.Value) {
	old := r.v[idx]
	if old == v {
		return
	}
	r.fp ^= entryHash(idx, old) ^ entryHash(idx, v)
	r.v[idx] = v
}

// JoinAt joins v into entry (i, j) with the table-driven lattice join,
// reporting whether the entry changed.
func (r *Reference) JoinAt(i, j int, v lattice.Value) bool {
	idx := i*r.ts.Len() + j
	nv := lattice.Join(r.v[idx], v)
	if nv == r.v[idx] {
		return false
	}
	if i == j && nv != lattice.Par {
		panic(fmt.Sprintf("depfunc: diagonal entry (%d,%d) must be ||", i, j))
	}
	r.setIdx(idx, nv)
	return true
}

// JoinWith joins other into r, cell by cell.
func (r *Reference) JoinWith(other *Reference) {
	for i := range r.v {
		r.setIdx(i, lattice.Join(r.v[i], other.v[i]))
	}
}

// MeetWith meets other into r, cell by cell.
func (r *Reference) MeetWith(other *Reference) {
	for i := range r.v {
		r.setIdx(i, lattice.Meet(r.v[i], other.v[i]))
	}
}

// RelaxViolations is the scalar end-of-period relaxation: cell by
// cell in row-major order, every unconditional entry (a, b) with a
// executed and b not is relaxed to its conditional counterpart, and
// onRelax (when non-nil) sees each transition. It returns the number
// of relaxed entries.
func (r *Reference) RelaxViolations(executed func(task int) bool, onRelax func(i, j int, old, new lattice.Value)) int {
	n := r.ts.Len()
	relaxed := 0
	for i := 0; i < n; i++ {
		if !executed(i) {
			continue
		}
		for j := 0; j < n; j++ {
			v := r.At(i, j)
			if i == j || executed(j) || !lattice.HasExecConstraint(v) {
				continue
			}
			r.Set(i, j, lattice.Relax(v))
			relaxed++
			if onRelax != nil {
				onRelax(i, j, v, lattice.Relax(v))
			}
		}
	}
	return relaxed
}

// Clone returns a deep copy.
func (r *Reference) Clone() *Reference {
	cp := &Reference{ts: r.ts, v: make([]lattice.Value, len(r.v)), fp: r.fp}
	copy(cp.v, r.v)
	return cp
}

// Weight sums the per-cell lattice distance.
func (r *Reference) Weight() int {
	w := 0
	for _, v := range r.v {
		w += lattice.Distance(v)
	}
	return w
}

// Key returns the canonical per-cell encoding (same format as
// DepFunc.Key).
func (r *Reference) Key() string {
	b := make([]byte, len(r.v))
	for i, v := range r.v {
		b[i] = '0' + byte(v)
	}
	return string(b)
}

// Fingerprint returns the incrementally maintained Zobrist hash.
func (r *Reference) Fingerprint() uint64 { return r.fp }

// Leq reports the pointwise order against another scalar matrix.
func (r *Reference) Leq(other *Reference) bool {
	for i := range r.v {
		if !lattice.Leq(r.v[i], other.v[i]) {
			return false
		}
	}
	return true
}

// Matches reports whether the packed matrix d agrees with r in every
// cell, in fingerprint, in weight and in key; it is the check the
// differential tiers apply after each shadowed operation.
func (r *Reference) Matches(d *DepFunc) error {
	if !r.ts.Equal(d.TaskSet()) {
		return fmt.Errorf("task sets differ")
	}
	n := r.ts.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got, want := d.At(i, j), r.At(i, j); got != want {
				return fmt.Errorf("entry (%d,%d): packed %v, reference %v", i, j, got, want)
			}
		}
	}
	if got, want := d.Fingerprint(), r.Fingerprint(); got != want {
		return fmt.Errorf("fingerprint: packed %#x, reference %#x", got, want)
	}
	if got, want := d.Weight(), r.Weight(); got != want {
		return fmt.Errorf("weight: packed %d, reference %d", got, want)
	}
	if got, want := d.Key(), r.Key(); got != want {
		return fmt.Errorf("key: packed %q, reference %q", got, want)
	}
	if fresh := d.freshFingerprint(); fresh != d.Fingerprint() {
		return fmt.Errorf("packed fingerprint drifted: incremental %#x, fresh %#x", d.Fingerprint(), fresh)
	}
	return nil
}
