package depfunc

import (
	"encoding/base64"
	"encoding/binary"
	"fmt"

	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// Wire encoding of a packed matrix for snapshots and WAL deltas: the
// lane words, little-endian, base64 (std, unpadded would save 2 bytes
// at the cost of a special case — keep std). The task set travels
// separately in the enclosing snapshot/delta record, so the encoding
// is only the n²-entry payload: 3 bits per entry, ~16× smaller than
// the human-readable Table form, and decoding is a copy plus
// validation instead of a parse.
//
// Decode never trusts the bytes: the base64 must be canonical (each
// matrix has exactly one accepted encoding), word count must match the
// task set, every lane must hold a real lattice code (the unused code
// 100 and any non-zero bits past the last entry are rejected), the
// diagonal must be ‖, and the fingerprint is recomputed from scratch
// rather than carried in the payload.

// EncodePacked returns the wire form of the matrix.
func (d *DepFunc) EncodePacked() string {
	lanes := d.w[1:]
	buf := make([]byte, 8*len(lanes))
	for i, w := range lanes {
		binary.LittleEndian.PutUint64(buf[8*i:], w)
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// DecodePacked reconstructs a matrix over ts from EncodePacked output.
func DecodePacked(ts *TaskSet, s string) (*DepFunc, error) {
	raw, err := base64.StdEncoding.Strict().DecodeString(s)
	if err != nil {
		return nil, fmt.Errorf("depfunc: packed payload: %w", err)
	}
	n := ts.Len()
	nw := words(n)
	if len(raw) != 8*nw {
		return nil, fmt.Errorf("depfunc: packed payload is %d bytes, want %d for %d tasks", len(raw), 8*nw, n)
	}
	d := &DepFunc{ts: ts, w: acquire(1+nw, false)}
	lanes := d.w[1:]
	n2 := n * n
	for i := range lanes {
		w := binary.LittleEndian.Uint64(raw[8*i:])
		used := n2 - i*lattice.PackedLanes
		if used > lattice.PackedLanes {
			used = lattice.PackedLanes
		}
		if !lattice.ValidPackedWord(w, used) {
			return nil, fmt.Errorf("depfunc: packed word %d holds invalid lanes", i)
		}
		lanes[i] = w
	}
	for i := 0; i < n; i++ {
		if d.codeAt(i*n+i) != 0 {
			return nil, fmt.Errorf("depfunc: packed diagonal entry (%d,%d) is not ||", i, i)
		}
	}
	d.fp = d.freshFingerprint()
	return d, nil
}
