package sfc

// Hilbert curves are implemented with Skilling's transpose algorithm
// (J. Skilling, "Programming the Hilbert curve", AIP Conf. Proc. 707, 2004),
// which converts between axis coordinates and the "transposed" form of the
// Hilbert index in O(bits × dims) bit operations, for any dimensionality.

// axesToTranspose converts coordinates x (modified in place) into the
// transposed Hilbert index representation using b bits per dimension.
func axesToTranspose(x []uint32, b uint) {
	n := len(x)
	m := uint32(1) << (b - 1)
	// Inverse undo.
	for q := m; q > 1; q >>= 1 {
		p := q - 1
		for i := 0; i < n; i++ {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < n; i++ {
		x[i] ^= x[i-1]
	}
	var t uint32
	for q := m; q > 1; q >>= 1 {
		if x[n-1]&q != 0 {
			t ^= q - 1
		}
	}
	for i := 0; i < n; i++ {
		x[i] ^= t
	}
}

// transposeToAxes inverts axesToTranspose.
func transposeToAxes(x []uint32, b uint) {
	n := len(x)
	bigN := uint32(2) << (b - 1)
	// Gray decode by H ^ (H/2).
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != bigN; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// transposeToIndex interleaves the transposed form into a single index:
// bit (b-1-j) of x[k] becomes bit ((b-1-j)*n + (n-1-k)) of the index.
func transposeToIndex(x []uint32, b uint) uint64 {
	n := len(x)
	var idx uint64
	for j := uint(0); j < b; j++ { // j = bit position from MSB
		bit := b - 1 - j
		for k := 0; k < n; k++ {
			idx = idx<<1 | uint64((x[k]>>bit)&1)
		}
	}
	return idx
}

// indexToTranspose inverts transposeToIndex, filling x (zeroed by the
// caller) from idx.
func indexToTranspose(idx uint64, b uint, x []uint32) {
	n := len(x)
	total := b * uint(n)
	for pos := uint(0); pos < total; pos++ {
		// pos counts from the MSB of idx.
		bit := (idx >> (total - 1 - pos)) & 1
		j := pos / uint(n) // bit index from MSB within each coordinate
		k := int(pos) % n  // which coordinate
		x[k] |= uint32(bit) << (b - 1 - j)
	}
}

// Hilbert2D is the 2-D Hilbert curve.
type Hilbert2D struct{}

// Index implements Curve.
func (Hilbert2D) Index(c [3]uint32, bits uint) uint64 { return hilbertIndex(c, bits, 2) }

// Coords implements Curve.
func (Hilbert2D) Coords(index uint64, bits uint) [3]uint32 { return hilbertCoords(index, bits, 2) }

// Hilbert3D is the 3-D Hilbert curve.
type Hilbert3D struct{}

// Index implements Curve.
func (Hilbert3D) Index(c [3]uint32, bits uint) uint64 { return hilbertIndex(c, bits, 3) }

// Coords implements Curve.
func (Hilbert3D) Coords(index uint64, bits uint) [3]uint32 { return hilbertCoords(index, bits, 3) }

// hilbertIndex transposes the first n coordinates of its own copy of c in
// place, so the conversion stays on the stack.
func hilbertIndex(c [3]uint32, bits uint, n int) uint64 {
	if bits == 0 {
		return 0
	}
	axesToTranspose(c[:n], bits)
	return transposeToIndex(c[:n], bits)
}

func hilbertCoords(index uint64, bits uint, n int) [3]uint32 {
	var c [3]uint32
	if bits == 0 {
		return c
	}
	indexToTranspose(index, bits, c[:n])
	transposeToAxes(c[:n], bits)
	return c
}
