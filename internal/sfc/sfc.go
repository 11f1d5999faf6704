// Package sfc implements the space-filling curves zMesh uses to order
// sibling blocks and cells: Morton (Z-order) and Hilbert, in two and three
// dimensions. Both directions (coordinates → curve index and back) are
// provided so orderings can be verified and inverted.
package sfc

import "fmt"

// Curve maps lattice coordinates to a 1-D index that preserves spatial
// locality. Implementations are pure functions of the coordinates and the
// per-dimension bit budget, so the ordering they induce is reproducible from
// structure alone — the property zMesh's restore recipe relies on.
//
// Coordinates are passed by value as {x, y, z}; a 2-D curve ignores z on
// the way in and returns z = 0 on the way out, so neither direction
// allocates.
type Curve interface {
	// Index maps c (each used coordinate < 2^bits) to a curve index.
	Index(c [3]uint32, bits uint) uint64
	// Coords inverts Index.
	Coords(index uint64, bits uint) [3]uint32
}

// New returns the named curve in the given dimensionality.
func New(name string, dims int) (Curve, error) {
	switch {
	case name == "morton" && dims == 2:
		return Morton2D{}, nil
	case name == "morton" && dims == 3:
		return Morton3D{}, nil
	case name == "hilbert" && dims == 2:
		return Hilbert2D{}, nil
	case name == "hilbert" && dims == 3:
		return Hilbert3D{}, nil
	case name == "rowmajor" && (dims == 2 || dims == 3):
		return RowMajor{}, nil
	}
	return nil, fmt.Errorf("sfc: unknown curve %q in %d dims", name, dims)
}

// RowMajor is the degenerate "curve" that orders by z-, then y-major scan.
// It is the no-locality baseline used in the sibling-order ablation. With
// z = 0 the 3-D formula is the 2-D one, so one type serves both.
type RowMajor struct{}

// Index implements Curve.
func (RowMajor) Index(c [3]uint32, bits uint) uint64 {
	return (uint64(c[2])<<bits|uint64(c[1]))<<bits | uint64(c[0])
}

// Coords implements Curve.
func (RowMajor) Coords(index uint64, bits uint) [3]uint32 {
	mask := (uint64(1) << bits) - 1
	return [3]uint32{
		uint32(index & mask),
		uint32((index >> bits) & mask),
		uint32((index >> (2 * bits)) & mask),
	}
}
