// Package zfp implements a ZFP-style transform-based error-bounded lossy
// compressor (Lindstrom, TVCG 2014) in fixed-accuracy mode. Data is
// processed in 4^d blocks: each block is converted to a block-floating-point
// representation with a per-block common exponent, decorrelated with ZFP's
// reversible integer lifting transform, mapped to negabinary, and the
// coefficient bit planes are coded most-significant first with ZFP's
// group-testing embedded coder, truncated at the precision implied by the
// error tolerance.
//
// Unlike the prediction-based SZ codec, ratio here is driven by smoothness
// *within* each 4-wide block, which is why the paper observes smaller (but
// still positive) gains for ZFP from zMesh's reordering.
package zfp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/bitstream"
	"repro/internal/compress"
	"repro/internal/frame"
)

const (
	magic   = 0x5a465031 // "ZFP1"
	version = 1

	intprec = 64                 // bits of the fixed-point representation
	nbmask  = 0xaaaaaaaaaaaaaaaa // negabinary conversion mask
	ebias   = 16384              // block exponent bias in the stream
)

// Compressor is the ZFP-like codec in fixed-accuracy mode.
type Compressor struct{}

// New returns a ZFP codec.
func New() *Compressor { return &Compressor{} }

func init() {
	compress.Register("zfp", func() compress.Compressor { return New() })
}

// Name implements compress.Compressor.
func (c *Compressor) Name() string { return "zfp" }

// perm2 and perm3 order block coefficients by total sequency (sum of
// per-dimension frequencies), low frequencies first, ties broken
// lexicographically. ZFP uses the same total-degree ordering.
var (
	perm2 = makePerm(2)
	perm3 = makePerm(3)
)

func makePerm(dims int) []int {
	size := 1 << (2 * uint(dims)) // 4^dims
	idx := make([]int, size)
	for i := range idx {
		idx[i] = i
	}
	degree := func(i int) int {
		d := 0
		for k := 0; k < dims; k++ {
			d += (i >> (2 * uint(k))) & 3
		}
		return d
	}
	// Stable insertion sort by degree keeps lexicographic tie-break.
	for a := 1; a < size; a++ {
		for b := a; b > 0 && degree(idx[b]) < degree(idx[b-1]); b-- {
			idx[b], idx[b-1] = idx[b-1], idx[b]
		}
	}
	return idx
}

func perm(dims int) []int {
	switch dims {
	case 2:
		return perm2
	case 3:
		return perm3
	default:
		return []int{0, 1, 2, 3}
	}
}

// fwdLift applies ZFP's forward decorrelating lifting step to four values
// at stride s starting at p[0].
func fwdLift(p []int64, off, s int) {
	x := p[off]
	y := p[off+s]
	z := p[off+2*s]
	w := p[off+3*s]

	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1

	p[off] = x
	p[off+s] = y
	p[off+2*s] = z
	p[off+3*s] = w
}

// invLift inverts fwdLift (up to the bits the forward shifts discard, which
// lie far below any representable tolerance).
func invLift(p []int64, off, s int) {
	x := p[off]
	y := p[off+s]
	z := p[off+2*s]
	w := p[off+3*s]

	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w

	p[off] = x
	p[off+s] = y
	p[off+2*s] = z
	p[off+3*s] = w
}

// fwdXform decorrelates a 4^dims block in place.
func fwdXform(blk []int64, dims int) {
	switch dims {
	case 1:
		fwdLift(blk, 0, 1)
	case 2:
		for j := 0; j < 4; j++ {
			fwdLift(blk, 4*j, 1) // rows (x)
		}
		for i := 0; i < 4; i++ {
			fwdLift(blk, i, 4) // columns (y)
		}
	case 3:
		for k := 0; k < 4; k++ {
			for j := 0; j < 4; j++ {
				fwdLift(blk, 16*k+4*j, 1) // x lines
			}
		}
		for k := 0; k < 4; k++ {
			for i := 0; i < 4; i++ {
				fwdLift(blk, 16*k+i, 4) // y lines
			}
		}
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				fwdLift(blk, 4*j+i, 16) // z lines
			}
		}
	}
}

// invXform inverts fwdXform (dimensions in reverse order).
func invXform(blk []int64, dims int) {
	switch dims {
	case 1:
		invLift(blk, 0, 1)
	case 2:
		for i := 0; i < 4; i++ {
			invLift(blk, i, 4)
		}
		for j := 0; j < 4; j++ {
			invLift(blk, 4*j, 1)
		}
	case 3:
		for j := 0; j < 4; j++ {
			for i := 0; i < 4; i++ {
				invLift(blk, 4*j+i, 16)
			}
		}
		for k := 0; k < 4; k++ {
			for i := 0; i < 4; i++ {
				invLift(blk, 16*k+i, 4)
			}
		}
		for k := 0; k < 4; k++ {
			for j := 0; j < 4; j++ {
				invLift(blk, 16*k+4*j, 1)
			}
		}
	}
}

// negabinary maps a signed coefficient to an unsigned code whose magnitude
// ordering matches bit-plane significance.
func negabinary(x int64) uint64 {
	return (uint64(x) + nbmask) ^ nbmask
}

// invNegabinary inverts negabinary.
func invNegabinary(u uint64) int64 {
	return int64((u ^ nbmask) - nbmask)
}

// blockPrecision is ZFP's fixed-accuracy precision rule: the number of bit
// planes that must be kept so the dropped planes stay below the tolerance,
// with 2*(dims+1) guard planes covering transform gain.
func blockPrecision(emax, minexp, dims int) int {
	p := emax - minexp + 2*(dims+1)
	if p < 0 {
		return 0
	}
	if p > intprec {
		return intprec
	}
	return p
}

// encodeInts is ZFP's embedded bit-plane coder: planes are emitted from the
// most significant down to kmin; within a plane, bits of already-significant
// coefficients are sent verbatim, and the rest of the plane is group-tested
// with a unary run-length code.
func encodeInts(w *bitstream.Writer, u []uint64, maxprec int, pm []int) {
	size := len(u)
	kmin := intprec - maxprec
	n := 0
	for k := intprec - 1; k >= kmin; k-- {
		// Step 1: extract bit plane k (in sequency order).
		var x uint64
		for i := 0; i < size; i++ {
			x |= ((u[pm[i]] >> uint(k)) & 1) << uint(i)
		}
		// Step 2: first n bits verbatim.
		w.WriteBits(x, uint(n))
		x >>= uint(n)
		// Step 3: unary run-length encode the remainder. Each group-test
		// bit says whether any not-yet-significant coefficient has this
		// plane's bit set; if so, zero positions are walked explicitly and
		// the significant position is marked (implied for the final slot).
		for n < size {
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for n < size-1 && x&1 == 0 {
				w.WriteBit(0)
				x >>= 1
				n++
			}
			if n < size-1 {
				w.WriteBit(1)
			}
			x >>= 1
			n++
		}
	}
}

// decodeInts inverts encodeInts.
func decodeInts(r *bitstream.Reader, u []uint64, maxprec int, pm []int) error {
	size := len(u)
	kmin := intprec - maxprec
	n := 0
	for k := intprec - 1; k >= kmin; k-- {
		x, err := r.ReadBits(uint(n))
		if err != nil {
			return err
		}
		for n < size {
			gb, err := r.ReadBit()
			if err != nil {
				return err
			}
			if gb == 0 {
				break
			}
			// Walk zero positions until the significant one (implied when
			// only the final slot remains).
			for n < size-1 {
				b, err := r.ReadBit()
				if err != nil {
					return err
				}
				if b != 0 {
					break
				}
				n++
			}
			x |= 1 << uint(n)
			n++
		}
		// Deposit plane.
		for i := 0; i < size && x != 0; i++ {
			u[pm[i]] |= (x & 1) << uint(k)
			x >>= 1
		}
	}
	return nil
}

// bitsLen reports the index just past the highest set bit of x.
func bitsLen(x uint64) int {
	n := 0
	for x != 0 {
		n++
		x >>= 1
	}
	return n
}

// encodeBlock writes one 4^dims block.
func encodeBlock(w *bitstream.Writer, blk []float64, dims, minexp int) {
	maxabs := 0.0
	for _, v := range blk {
		if a := math.Abs(v); a > maxabs {
			maxabs = a
		}
	}
	if maxabs == 0 {
		w.WriteBit(0)
		return
	}
	_, emax := math.Frexp(maxabs) // maxabs = f * 2^emax, f in [0.5,1)
	maxprec := blockPrecision(emax, minexp, dims)
	if maxprec == 0 {
		// Entire block is below the tolerance floor: code as zero.
		w.WriteBit(0)
		return
	}
	w.WriteBit(1)
	w.WriteBits(uint64(emax+ebias), 16)
	// Block floating point: q = v * 2^(62-emax), |q| < 2^62.
	s := math.Ldexp(1, intprec-2-emax)
	iblk := make([]int64, len(blk))
	for i, v := range blk {
		iblk[i] = int64(v * s)
	}
	fwdXform(iblk, dims)
	u := make([]uint64, len(iblk))
	for i, q := range iblk {
		u[i] = negabinary(q)
	}
	encodeInts(w, u, maxprec, perm(dims))
}

// decodeBlock reads one block into blk.
func decodeBlock(r *bitstream.Reader, blk []float64, dims, minexp int) error {
	nz, err := r.ReadBit()
	if err != nil {
		return err
	}
	if nz == 0 {
		for i := range blk {
			blk[i] = 0
		}
		return nil
	}
	e64, err := r.ReadBits(16)
	if err != nil {
		return err
	}
	emax := int(e64) - ebias
	maxprec := blockPrecision(emax, minexp, dims)
	if maxprec == 0 {
		return errors.New("zfp: inconsistent block header")
	}
	u := make([]uint64, len(blk))
	if err := decodeInts(r, u, maxprec, perm(dims)); err != nil {
		return err
	}
	iblk := make([]int64, len(blk))
	for i, v := range u {
		iblk[i] = invNegabinary(v)
	}
	invXform(iblk, dims)
	s := math.Ldexp(1, emax-(intprec-2))
	for i, q := range iblk {
		blk[i] = float64(q) * s
	}
	return nil
}

// minExpOf computes ZFP's minexp from a tolerance: the largest e with
// 2^e <= tol.
func minExpOf(tol float64) int {
	_, e := math.Frexp(tol) // tol = f * 2^e, f in [0.5,1)
	return e - 1
}

// blockCount returns ceil(n/4).
func blockCount(n int) int { return (n + 3) / 4 }

// Compress implements compress.Compressor.
func (c *Compressor) Compress(data []float64, dims []int, bound compress.Bound) ([]byte, error) {
	if err := compress.Validate(data, dims); err != nil {
		return nil, err
	}
	eb := bound.Absolute(data)
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("zfp: invalid error bound %v", eb)
	}
	minexp := minExpOf(eb)
	ndims := len(dims)

	head := make([]byte, 0, 64)
	head = binary.AppendUvarint(head, magic)
	head = binary.AppendUvarint(head, version)
	head = binary.AppendUvarint(head, uint64(ndims))
	for _, d := range dims {
		head = binary.AppendUvarint(head, uint64(d))
	}
	head = binary.AppendUvarint(head, math.Float64bits(eb))

	w := bitstream.NewWriter(len(data) * 16)
	switch ndims {
	case 1:
		n := dims[0]
		var blk [4]float64
		for b := 0; b < blockCount(n); b++ {
			gather1(data, n, b, blk[:])
			encodeBlock(w, blk[:], 1, minexp)
		}
	case 2:
		ny, nx := dims[0], dims[1]
		var blk [16]float64
		for bj := 0; bj < blockCount(ny); bj++ {
			for bi := 0; bi < blockCount(nx); bi++ {
				gather2(data, nx, ny, bi, bj, blk[:])
				encodeBlock(w, blk[:], 2, minexp)
			}
		}
	case 3:
		nz, ny, nx := dims[0], dims[1], dims[2]
		var blk [64]float64
		for bk := 0; bk < blockCount(nz); bk++ {
			for bj := 0; bj < blockCount(ny); bj++ {
				for bi := 0; bi < blockCount(nx); bi++ {
					gather3(data, nx, ny, nz, bi, bj, bk, blk[:])
					encodeBlock(w, blk[:], 3, minexp)
				}
			}
		}
	}
	return append(head, w.Bytes()...), nil
}

// ErrCorrupt is returned for malformed payloads.
var ErrCorrupt = errors.New("zfp: corrupt payload")

// Decompress implements compress.Compressor.
func (c *Compressor) Decompress(buf []byte) ([]float64, error) {
	r := frame.NewReader(buf)
	if r.Uvarint() != magic || r.Bad() {
		return nil, ErrCorrupt
	}
	if ver := r.Uvarint(); ver != version || r.Bad() {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	dims, n, err := compress.ReadShape(&r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	eb := math.Float64frombits(r.Uvarint())
	if r.Bad() || eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, ErrCorrupt
	}
	minexp := minExpOf(eb)

	// Reject element counts the remaining bits cannot possibly encode (an
	// all-zero block still costs one bit per 4^d values) before allocating.
	if err := compress.PlausibleCount(n, r.Len()); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	out := make([]float64, n)
	bits := bitstream.NewReader(r.Rest())
	switch len(dims) {
	case 1:
		var blk [4]float64
		for b := 0; b < blockCount(dims[0]); b++ {
			if err := decodeBlock(bits, blk[:], 1, minexp); err != nil {
				return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
			}
			scatter1(out, dims[0], b, blk[:])
		}
	case 2:
		ny, nx := dims[0], dims[1]
		var blk [16]float64
		for bj := 0; bj < blockCount(ny); bj++ {
			for bi := 0; bi < blockCount(nx); bi++ {
				if err := decodeBlock(bits, blk[:], 2, minexp); err != nil {
					return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
				}
				scatter2(out, nx, ny, bi, bj, blk[:])
			}
		}
	case 3:
		nz, ny, nx := dims[0], dims[1], dims[2]
		var blk [64]float64
		for bk := 0; bk < blockCount(nz); bk++ {
			for bj := 0; bj < blockCount(ny); bj++ {
				for bi := 0; bi < blockCount(nx); bi++ {
					if err := decodeBlock(bits, blk[:], 3, minexp); err != nil {
						return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
					}
					scatter3(out, nx, ny, nz, bi, bj, bk, blk[:])
				}
			}
		}
	}
	return out, nil
}

// gather/scatter move 4^d tiles between the flat array and block buffers,
// replicating edge values into the padding of partial blocks.

func gather1(data []float64, n, b int, blk []float64) {
	for i := 0; i < 4; i++ {
		src := 4*b + i
		if src >= n {
			src = n - 1
		}
		blk[i] = data[src]
	}
}

func scatter1(out []float64, n, b int, blk []float64) {
	for i := 0; i < 4; i++ {
		if dst := 4*b + i; dst < n {
			out[dst] = blk[i]
		}
	}
}

func clampIdx(v, n int) int {
	if v >= n {
		return n - 1
	}
	return v
}

func gather2(data []float64, nx, ny, bi, bj int, blk []float64) {
	for j := 0; j < 4; j++ {
		sj := clampIdx(4*bj+j, ny)
		for i := 0; i < 4; i++ {
			si := clampIdx(4*bi+i, nx)
			blk[4*j+i] = data[sj*nx+si]
		}
	}
}

func scatter2(out []float64, nx, ny, bi, bj int, blk []float64) {
	for j := 0; j < 4; j++ {
		dj := 4*bj + j
		if dj >= ny {
			continue
		}
		for i := 0; i < 4; i++ {
			di := 4*bi + i
			if di >= nx {
				continue
			}
			out[dj*nx+di] = blk[4*j+i]
		}
	}
}

func gather3(data []float64, nx, ny, nz, bi, bj, bk int, blk []float64) {
	for k := 0; k < 4; k++ {
		sk := clampIdx(4*bk+k, nz)
		for j := 0; j < 4; j++ {
			sj := clampIdx(4*bj+j, ny)
			for i := 0; i < 4; i++ {
				si := clampIdx(4*bi+i, nx)
				blk[(4*k+j)*4+i] = data[(sk*ny+sj)*nx+si]
			}
		}
	}
}

func scatter3(out []float64, nx, ny, nz, bi, bj, bk int, blk []float64) {
	for k := 0; k < 4; k++ {
		dk := 4*bk + k
		if dk >= nz {
			continue
		}
		for j := 0; j < 4; j++ {
			dj := 4*bj + j
			if dj >= ny {
				continue
			}
			for i := 0; i < 4; i++ {
				di := 4*bi + i
				if di >= nx {
					continue
				}
				out[(dk*ny+dj)*nx+di] = blk[(4*k+j)*4+i]
			}
		}
	}
}
