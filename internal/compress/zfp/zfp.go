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
	"math/bits"

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

// perms[d] orders the coefficients of a 4^d block by total sequency (sum
// of per-dimension frequencies), low frequencies first, ties broken
// lexicographically. ZFP uses the same total-degree ordering.
var perms = [4][]int{1: makePerm(1), 2: makePerm(2), 3: makePerm(3)}

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

// lineStarts[a] lists, ascending, the block indices whose axis-a digit is
// zero: the first value of every line along axis a, whose stride is 4^a. A
// 4^d block uses the first 4^(d-1) of them.
var lineStarts = func() (t [3][16]int) {
	for a := range t {
		k := 0
		for i := 0; i < 64; i++ {
			if i>>(2*a)&3 == 0 {
				t[a][k] = i
				k++
			}
		}
	}
	return t
}()

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

// fwdXform decorrelates a 4^dims block in place, one axis at a time from
// x (stride 1) up.
func fwdXform(blk []int64, dims int) {
	lines := 1 << (2 * (dims - 1))
	for a := 0; a < dims; a++ {
		for _, off := range lineStarts[a][:lines] {
			fwdLift(blk, off, 1<<(2*a))
		}
	}
}

// invXform inverts fwdXform (axes in reverse order).
func invXform(blk []int64, dims int) {
	lines := 1 << (2 * (dims - 1))
	for a := dims - 1; a >= 0; a-- {
		for _, off := range lineStarts[a][:lines] {
			invLift(blk, off, 1<<(2*a))
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

// transpose transposes, in place, the size×size bit matrices that v[:size]
// holds lane by lane: lane b of word i, bits [b·size, (b+1)·size), is row i
// of matrix b. Afterwards bit i of lane b of word r is what bit b·size+r of
// word i was, so bit plane k of the size codes is lane k/size of word
// k%size. It is the masked-swap transpose of Hacker's Delight §7-3 started
// at j = size/2, where each mask is correct lane by lane, and it is its own
// inverse.
func transpose(v *[64]uint64, dims int) {
	size := 1 << (2 * dims)
	for i := 2*dims - 1; i >= 0; i-- {
		j, m := 1<<i, swapMasks[i]
		for k := 0; k < size; k = (k | j + 1) &^ j {
			t := (v[k&63]>>(uint(j)&63) ^ v[(k|j)&63]) & m
			v[(k|j)&63] ^= t
			v[k&63] ^= t << (uint(j) & 63)
		}
	}
}

// swapMasks[i] selects the low 2^i bits of every 2^(i+1)-bit field: the
// bits transpose keeps in place when it swaps at distance j = 2^i.
var swapMasks = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0f0f0f0f0f0f0f0f,
	0x00ff00ff00ff00ff, 0x0000ffff0000ffff, 0x00000000ffffffff,
}

// encodeInts is ZFP's embedded bit-plane coder over the 4^dims codes in
// v, in sequency order, which it transposes in place: planes are emitted
// from the most significant down to intprec-maxprec; within a plane, bits
// of already-significant coefficients are sent verbatim, and the rest of
// the plane is group-tested with a unary run-length code.
func encodeInts(w *bitstream.Writer, v *[64]uint64, dims, maxprec int) {
	size := 1 << (2 * dims)
	transpose(v, dims)
	mask := uint64(1)<<uint(size) - 1
	n := 0
	for k := intprec - 1; k >= intprec-maxprec; k-- {
		x := v[k&(size-1)&63] >> (uint(k&^(size-1)) & 63) & mask
		w.WriteBits(x, uint(n))
		x >>= uint(n)
		// Each group-test 1 says some not-yet-significant coefficient has
		// this plane's bit set; the zeros after it walk to that position,
		// and a closing 1 marks it unless it is the final slot, which is
		// implied. The run never exceeds the size-n bits left in the plane.
		for n < size {
			if x == 0 {
				w.WriteBit(0)
				break
			}
			tz := bits.TrailingZeros64(x)
			if n+tz == size-1 {
				w.WriteBits(1, uint(size-n))
				n = size
				break
			}
			w.WriteBits(1|1<<uint(tz+1), uint(tz+2))
			x >>= uint(tz + 1)
			n += tz + 1
		}
	}
}

// decodeInts inverts encodeInts, leaving the codes in v in sequency order.
// It decodes from a window of peeked bits, b with avail of them valid,
// skipping in r what it consumes and peeking again only when the window
// runs dry: one peek covers a 1-D or 2-D plane, at most 2·size+1 bits,
// except at the end of the stream.
func decodeInts(r *bitstream.Reader, v *[64]uint64, dims, maxprec int) error {
	size := 1 << (2 * dims)
	clear(v[:size])
	n := 0
	for k := intprec - 1; k >= intprec-maxprec; k-- {
		b, avail := r.Peek()
		var x uint64
		if uint(n) <= avail {
			x = b & (1<<uint(n) - 1)
			r.Skip(uint(n))
			b, avail = b>>uint(n), avail-uint(n)
		} else {
			var err error
			if x, err = r.ReadBits(uint(n)); err != nil {
				return err
			}
			b, avail = r.Peek()
		}
		for n < size {
			if avail == 0 {
				if b, avail = r.Peek(); avail == 0 {
					return bitstream.ErrShortStream
				}
			}
			group := b & 1
			r.Skip(1)
			b, avail = b>>1, avail-1
			if group == 0 {
				break
			}
			// Skip the zeros up to the significant position and the 1
			// that closes them, which is implied at the final slot. Bits
			// past avail are zero, so a 1 found lies inside the window.
			for {
				run := uint(size - 1 - n)
				if tz := uint(bits.TrailingZeros64(b)); tz < run {
					r.Skip(tz + 1)
					b, avail = b>>(tz+1), avail-(tz+1)
					n += int(tz)
					break
				}
				if run <= avail {
					r.Skip(run)
					b, avail = b>>run, avail-run
					n = size - 1
					break
				}
				r.Skip(avail)
				n += int(avail)
				if b, avail = r.Peek(); avail == 0 {
					return bitstream.ErrShortStream
				}
			}
			x |= 1 << uint(n)
			n++
		}
		v[k&(size-1)&63] |= x << (uint(k&^(size-1)) & 63)
	}
	transpose(v, dims)
	return nil
}

// block is the scratch of one 4^d tile, 4^d <= 64: its values, their
// block-floating-point integers and the integers' negabinary codes in
// sequency order.
type block struct {
	f [64]float64
	q [64]int64
	v [64]uint64
}

// encodeBlock writes the first 4^dims values of b.f.
func encodeBlock(w *bitstream.Writer, b *block, dims, minexp int) {
	size := 1 << (2 * dims)
	maxabs := 0.0
	for _, v := range b.f[:size] {
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
	q := b.q[:size]
	for i, v := range b.f[:size] {
		q[i] = int64(v * s)
	}
	fwdXform(q, dims)
	for i, p := range perms[dims] {
		b.v[i] = negabinary(q[p])
	}
	encodeInts(w, &b.v, dims, maxprec)
}

// decodeBlock reads one block into the first 4^dims values of b.f.
func decodeBlock(r *bitstream.Reader, b *block, dims, minexp int) error {
	size := 1 << (2 * dims)
	nz, err := r.ReadBit()
	if err != nil {
		return err
	}
	if nz == 0 {
		clear(b.f[:size])
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
	if err := decodeInts(r, &b.v, dims, maxprec); err != nil {
		return err
	}
	q := b.q[:size]
	for i, p := range perms[dims] {
		q[p] = invNegabinary(b.v[i])
	}
	invXform(q, dims)
	s := math.Ldexp(1, emax-(intprec-2))
	for i, x := range q {
		b.f[i] = float64(x) * s
	}
	return nil
}

// minExpOf computes ZFP's minexp from a tolerance: the largest e with
// 2^e <= tol.
func minExpOf(tol float64) int {
	_, e := math.Frexp(tol) // tol = f * 2^e, f in [0.5,1)
	return e - 1
}

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

	head := make([]byte, 0, 64+2*len(data))
	head = binary.AppendUvarint(head, magic)
	head = binary.AppendUvarint(head, version)
	head = binary.AppendUvarint(head, uint64(len(dims)))
	for _, d := range dims {
		head = binary.AppendUvarint(head, uint64(d))
	}
	head = binary.AppendUvarint(head, math.Float64bits(eb))

	w := bitstream.NewWriter(head)
	var b block
	walkTiles(dims, func(t *tile) error {
		for i := range b.f[:1<<(2*len(dims))] {
			j, _ := t.at(i)
			b.f[i] = data[j]
		}
		encodeBlock(w, &b, len(dims), minexp)
		return nil
	})
	return w.Bytes(), nil
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
	var b block
	err = walkTiles(dims, func(t *tile) error {
		if err := decodeBlock(bits, &b, len(dims), minexp); err != nil {
			return err
		}
		for i, v := range b.f[:1<<(2*len(dims))] {
			if j, in := t.at(i); in {
				out[j] = v
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return out, nil
}

// tile is one 4^d tile of a row-major array. Per block axis a (x = 0, the
// array's last and fastest axis) it holds the array offset of each of the
// tile's four positions along a, clamped to the array's last element on that
// axis so that gathers replicate edge values, and whether the position lies
// inside the array. An axis past the rank has extent 1: its one position is
// offset 0 and inside.
type tile struct {
	off [3][4]int
	in  [3][4]bool
}

// at returns the array index of block value i, block index i = x + 4y + 16z,
// and whether it lies inside the array.
func (t *tile) at(i int) (int, bool) {
	x, y, z := i&3, i>>2&3, i>>4&3
	return t.off[0][x] + t.off[1][y] + t.off[2][z], t.in[0][x] && t.in[1][y] && t.in[2][z]
}

// walkTiles calls fn with each 4^d tile of a row-major array of shape dims
// (slowest axis first), tiles along the last axis fastest, and stops at the
// first error.
func walkTiles(dims []int, fn func(t *tile) error) error {
	var n, stride, first [3]int // per block axis: extent, array stride, tile's first position
	s := 1
	for a := range n {
		n[a], stride[a] = 1, s
		if a < len(dims) {
			n[a] = dims[len(dims)-1-a]
		}
		s *= n[a]
	}
	var t tile
	for a := 0; a < len(first); {
		for k := range t.off {
			for p := range t.off[k] {
				t.off[k][p] = min(first[k]+p, n[k]-1) * stride[k]
				t.in[k][p] = first[k]+p < n[k]
			}
		}
		if err := fn(&t); err != nil {
			return err
		}
		for a = 0; a < len(first); a++ { // advance like an odometer
			if first[a] += 4; first[a] < n[a] {
				break
			}
			first[a] = 0
		}
	}
	return nil
}
