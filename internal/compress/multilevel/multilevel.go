// Package multilevel implements an MGARD-inspired error-bounded compressor
// (Ainsworth, Tugluk, Whitney, Klasky — "Multilevel techniques for
// compression and reduction of scientific data"): the input is decomposed
// into a hierarchical (interpolation) basis — at each level, nodes at odd
// multiples of the stride are replaced by their deviation from the linear
// interpolant of their even neighbours, dimension by dimension — the
// multilevel coefficients are uniformly quantized with a budget that splits
// the error bound across levels, and the quantization codes are entropy
// coded like SZ's (canonical Huffman + DEFLATE).
//
// This is the hierarchical-basis core of MGARD without the L²-projection
// correction; it preserves MGARD's defining behaviour — coefficients decay
// with level for smooth data, so coarse levels carry almost all the signal.
package multilevel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/compress/entropy"
	"repro/internal/frame"
)

const (
	magic   = 0x4d474c31 // "MGL1"
	version = 2
)

// DefaultIntervals is the quantization capacity (Huffman alphabet size).
const DefaultIntervals = 65536

// Compressor is the multilevel codec.
type Compressor struct {
	// Intervals is the quantization capacity; even, >= 4.
	Intervals int
}

// New returns a multilevel codec with default settings.
func New() *Compressor { return &Compressor{Intervals: DefaultIntervals} }

func init() {
	compress.Register("mgl", func() compress.Compressor { return New() })
}

// Name implements compress.Compressor.
func (c *Compressor) Name() string { return "mgl" }

// numLevels reports the decomposition depth for extent n: strides
// 1, 2, 4, ... while 2*stride < n gives level count.
func numLevels(dims []int) int {
	max := 0
	for _, d := range dims {
		l := 0
		for s := 1; 2*s < d; s *= 2 {
			l++
		}
		if l > max {
			max = l
		}
	}
	return max
}

// forwardAxis applies one level of the hierarchical decomposition along an
// axis: for every line, nodes at odd multiples of stride become details
// (value minus linear interpolant of even neighbours). lineLen is the
// extent along the axis, lineStride the memory stride between consecutive
// axis elements.
func forwardLine(data []float64, base, lineLen, lineStride, s int) {
	for i := s; i < lineLen; i += 2 * s {
		data[base+i*lineStride] -= linePred(data, base, lineLen, lineStride, s, i)
	}
}

// inverseLine inverts forwardLine.
func inverseLine(data []float64, base, lineLen, lineStride, s int) {
	for i := s; i < lineLen; i += 2 * s {
		data[base+i*lineStride] += linePred(data, base, lineLen, lineStride, s, i)
	}
}

// linePred predicts the odd node at i from the kept (even-multiple) nodes:
// the linear interpolant of its neighbours in the interior and the left
// neighbour alone at the right boundary. The boundary deliberately stays
// zeroth-order: its prediction weights sum to 1 in magnitude, which keeps
// the level-wise error amplification linear (errorAmplification); a linear
// extrapolation (weights 2, −1) would compound neighbour errors by 3 per
// level and break the worst-case bound. Predictions read only kept nodes,
// so forward and inverse apply them identically.
func linePred(data []float64, base, lineLen, lineStride, s, i int) float64 {
	left := data[base+(i-s)*lineStride]
	if i+s < lineLen {
		return 0.5 * (left + data[base+(i+s)*lineStride])
	}
	return left
}

// axisGeometry enumerates the lines of an N-D array along one axis.
type axisGeometry struct {
	lineLen    int
	lineStride int
	lines      []int // base offsets
}

// geometry computes the line decomposition of dims (slowest-first order,
// as used throughout the compress packages) along axis a.
func geometry(dims []int, a int) axisGeometry {
	// Strides, slowest-first: stride[last] = 1.
	nd := len(dims)
	strides := make([]int, nd)
	strides[nd-1] = 1
	for i := nd - 2; i >= 0; i-- {
		strides[i] = strides[i+1] * dims[i+1]
	}
	g := axisGeometry{lineLen: dims[a], lineStride: strides[a]}
	// Enumerate all index combinations of the other axes.
	total := 1
	for i, d := range dims {
		if i != a {
			total *= d
		}
	}
	g.lines = make([]int, 0, total)
	idx := make([]int, nd)
	for {
		base := 0
		for i := range idx {
			base += idx[i] * strides[i]
		}
		g.lines = append(g.lines, base)
		// Increment the multi-index, skipping axis a.
		i := nd - 1
		for ; i >= 0; i-- {
			if i == a {
				continue
			}
			idx[i]++
			if idx[i] < dims[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return g
}

// decompose applies the full multilevel transform in place and returns the
// level of each element (0 = finest detail, L = coarsest nodes), used for
// diagnostics and level-wise statistics.
func decompose(data []float64, dims []int) {
	levels := numLevels(dims)
	for l, s := 0, 1; l < levels; l, s = l+1, s*2 {
		for a := 0; a < len(dims); a++ {
			if 2*s >= dims[a] && s >= dims[a] {
				continue
			}
			g := geometry(dims, a)
			for _, base := range g.lines {
				forwardLine(data, base, g.lineLen, g.lineStride, s)
			}
		}
	}
}

// recompose inverts decompose.
func recompose(data []float64, dims []int) {
	levels := numLevels(dims)
	// Levels in reverse, axes in reverse.
	s := 1
	for l := 0; l < levels-1; l++ {
		s *= 2
	}
	for l := levels - 1; l >= 0; l, s = l-1, s/2 {
		for a := len(dims) - 1; a >= 0; a-- {
			if 2*s >= dims[a] && s >= dims[a] {
				continue
			}
			g := geometry(dims, a)
			for _, base := range g.lines {
				inverseLine(data, base, g.lineLen, g.lineStride, s)
			}
		}
	}
}

// errorAmplification bounds how much per-coefficient quantization error can
// amplify through recomposition: each inverse level adds at most the mean
// of two already-erroneous neighbours on top of the coefficient's own
// error, so the worst case grows linearly with level count per dimension.
func errorAmplification(dims []int) float64 {
	amp := float64(numLevels(dims)*len(dims) + 1)
	return amp
}

// Compress implements compress.Compressor.
func (c *Compressor) Compress(data []float64, dims []int, bound compress.Bound) ([]byte, error) {
	if err := compress.Validate(data, dims); err != nil {
		return nil, err
	}
	if c.Intervals < 4 || c.Intervals%2 != 0 {
		return nil, fmt.Errorf("mgl: intervals must be even and >= 4, got %d", c.Intervals)
	}
	eb := bound.Absolute(data)
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("mgl: invalid error bound %v", eb)
	}
	buf := entropy.Get(len(data))
	defer buf.Put()
	work, codes := buf.Work, buf.Codes
	copy(work, data)
	decompose(work, dims)

	// Quantize coefficients with the amplification-adjusted budget.
	q := eb / errorAmplification(dims)
	twoQ := 2 * q
	radius := c.Intervals / 2
	for i, v := range work {
		k := math.Floor(v/twoQ + 0.5)
		if math.Abs(k) < float64(radius) && math.Abs(k*twoQ-v) <= q {
			codes[i] = int(k) + radius
			continue
		}
		codes[i] = 0
		buf.Unpred = append(buf.Unpred, v)
	}
	out, err := buf.Seal(c.Intervals, func(head []byte, codedLen int) []byte {
		head = binary.AppendUvarint(head, magic)
		head = binary.AppendUvarint(head, version)
		head = appendDims(head, dims)
		head = binary.AppendUvarint(head, uint64(c.Intervals))
		head = binary.AppendUvarint(head, math.Float64bits(q))
		head = binary.AppendUvarint(head, uint64(len(buf.Unpred)))
		return binary.AppendUvarint(head, uint64(codedLen))
	})
	if err != nil {
		return nil, fmt.Errorf("mgl: %w", err)
	}
	return out, nil
}

// appendDims appends the dimension count and extents as uvarints.
func appendDims(head []byte, dims []int) []byte {
	head = binary.AppendUvarint(head, uint64(len(dims)))
	for _, d := range dims {
		head = binary.AppendUvarint(head, uint64(d))
	}
	return head
}

// ErrCorrupt is returned for malformed payloads.
var ErrCorrupt = errors.New("mgl: corrupt payload")

// stream is one parsed MGL1 or MGLT payload: quantization codes (0 = escape)
// still in the entropy.Buf that decoded them, and the escaped values.
type stream struct {
	tier      int // MGLT only
	dims      []int
	radius    int
	q         float64
	codes     []int
	rawUnpred []byte // float64-LE
}

// parseStream undoes the lossless and entropy stages of a payload with the
// given magic (tierMagic payloads carry a tier index after the version) and
// validates every header field against the bytes that remain. The result
// aliases work and buf.
func parseStream(work *entropy.Buf, buf []byte, wantMagic uint64) (stream, error) {
	var st stream
	if len(buf) < 2 || buf[0] > 1 {
		return st, ErrCorrupt
	}
	body, err := work.Open(buf)
	if err != nil {
		return st, fmt.Errorf("%w: lossless stage: %w", ErrCorrupt, err)
	}
	r := frame.NewReader(body)
	if r.Uvarint() != wantMagic || r.Bad() {
		return st, ErrCorrupt
	}
	if ver := r.Uvarint(); ver != version || r.Bad() {
		return st, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	if wantMagic == tierMagic {
		st.tier = int(r.Uvarint())
	}
	var n int
	if st.dims, n, err = compress.ReadShape(&r); err != nil {
		return st, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	intervals := r.Uvarint()
	st.radius = int(intervals / 2)
	st.q = math.Float64frombits(r.Uvarint())
	nUnpred, codedLen := r.Uvarint(), r.Uvarint()
	// No more values escape than there are values, so 8*nUnpred cannot wrap.
	if r.Bad() || intervals < 4 || intervals%2 != 0 || intervals > 1<<30 ||
		st.q <= 0 || math.IsNaN(st.q) || math.IsInf(st.q, 0) || nUnpred > uint64(n) {
		return st, ErrCorrupt
	}
	coded := r.Bytes(codedLen)
	st.rawUnpred = r.Bytes(8 * nUnpred)
	if r.Bad() {
		return st, ErrCorrupt
	}
	// recompose walks the full dims geometry, so the code count must match.
	if err := work.Decode(coded, n); err != nil {
		return st, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	st.codes = work.Codes
	return st, nil
}

// accumulate adds the stream's dequantized coefficients into coeffs; an
// escaped coefficient adds its stored value verbatim. Into zeroed coeffs
// this is assignment, bit for bit: the encoder produces no −0 of either kind.
func (st *stream) accumulate(coeffs []float64) error {
	raw, twoQ := st.rawUnpred, 2*st.q
	for i, code := range st.codes {
		if code != 0 {
			coeffs[i] += float64(code-st.radius) * twoQ
			continue
		}
		if len(raw) == 0 {
			return ErrCorrupt
		}
		coeffs[i] += math.Float64frombits(binary.LittleEndian.Uint64(raw))
		raw = raw[8:]
	}
	if len(raw) != 0 {
		return ErrCorrupt
	}
	return nil
}

// Decompress implements compress.Compressor.
func (c *Compressor) Decompress(buf []byte) ([]float64, error) {
	work := entropy.Get(0)
	defer work.Put()
	st, err := parseStream(work, buf, magic)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(st.codes))
	if err := st.accumulate(out); err != nil {
		return nil, err
	}
	recompose(out, st.dims)
	return out, nil
}
