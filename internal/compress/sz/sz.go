// Package sz implements an SZ-style error-bounded lossy compressor (Di &
// Cappello, IPDPS'16; Tao et al., IPDPS'17) with cuSZ's dual quantization
// (Tian et al., PACT'20): each value is pre-quantized to p = round(v / 2eb),
// a Lorenzo predictor runs on those integers, and its residuals go through a
// canonical Huffman coder and a DEFLATE stage. A value the grid cannot hold
// within the bound, or whose residual is out of range, is stored verbatim.
// Nothing float is carried from cell to cell: decoding is an integer prefix
// sum and one multiply.
//
// Like SZ's, its ratio grows with the smoothness of the input stream, which
// is what zMesh's reordering improves.
package sz

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
	magic   = 0x535a4731 // "SZG1"
	version = 3
)

// DefaultIntervals is the default linear-scaling quantization capacity
// (SZ's default quantization_intervals), i.e. the Huffman alphabet size.
const DefaultIntervals = 65536

// Compressor is the SZ-like codec. The zero value is NOT ready: use New.
type Compressor struct {
	// Intervals is the quantization capacity (alphabet size). Must be an
	// even number >= 4. Code 0 is reserved for unpredictable values.
	Intervals int
}

// New returns an SZ codec with default settings.
func New() *Compressor { return &Compressor{Intervals: DefaultIntervals} }

func init() {
	compress.Register("sz", func() compress.Compressor { return New() })
}

// Name implements compress.Compressor.
func (c *Compressor) Name() string { return "sz" }

// choose1DPredictor samples the data and picks the 1-D predictor order with
// the smaller total residual, mirroring SZ's predictor auto-tuning.
func choose1DPredictor(data []float64) int {
	var r1, r2 float64
	stride := len(data)/4096 + 1
	for i := 2; i < len(data); i += stride {
		r1 += math.Abs(data[i] - data[i-1])
		r2 += math.Abs(data[i] - (2*data[i-1] - data[i-2]))
	}
	if r2 < r1 {
		return 2
	}
	return 1
}

// prequant puts v on the grid of multiples of twoEb, p = round(v / twoEb);
// ok reports that p·twoEb, what the decoder writes, is within eb of v. p is
// 0 where |v / twoEb| reaches 2^52 (so for every non-finite v), so Lorenzo
// sums cannot overflow. Both sides recompute an escaped value's p with it.
func prequant(v, twoEb, eb float64) (p int64, ok bool) {
	x := math.Floor(v/twoEb + 0.5)
	if !(math.Abs(x) < 1<<52) {
		return 0, false
	}
	p = int64(x)
	return p, math.Abs(float64(float64(p)*twoEb)-v) <= eb
}

// coder is one call's state. The encoder fills codes and unpred and keeps
// the first error; the decoder reads codes and raw (unread escapes) into out.
type coder struct {
	twoEb, eb float64
	radius    int64
	codes     []int
	unpred    []float64
	err       error
	raw       []byte // float64-LE
	out       []float64
}

// escape stores cell i's value verbatim under code 0. A non-finite value is
// an error, found here so that the fast path never looks for one.
func (c *coder) escape(i int, v float64) {
	if (math.IsNaN(v) || math.IsInf(v, 0)) && c.err == nil {
		c.err = compress.NonFinite(i)
	}
	c.codes[i] = 0
	c.unpred = append(c.unpred, v)
}

// unescape reads cell i's value from the body and returns its p.
func (c *coder) unescape(i int) int64 {
	if len(c.raw) < 8 {
		c.err = ErrCorrupt
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(c.raw))
	c.raw, c.out[i] = c.raw[8:], v
	p, _ := prequant(v, c.twoEb, c.eb)
	return p
}

// line runs the 1-D predictor, encoding data or, where data is nil,
// decoding the codes. It predicts the previous value for k = 0 (order 1)
// and adds the last step for k = 1 (order 2, from the second value on).
// Decoding order 1 is prefix's, which is faster (DESIGN.md "Hot path").
func (c *coder) line(data []float64, k int64) {
	twoEb, eb, r, codes := c.twoEb, c.eb, c.radius, c.codes
	var p1, dp, p int64
	for i := range codes {
		if pred := p1 + k*dp; data == nil {
			if p = pred + int64(codes[i]) - r; codes[i] != 0 {
				c.out[i] = float64(p) * twoEb
			} else {
				p = c.unescape(i)
			}
		} else {
			var ok bool
			if p, ok = prequant(data[i], twoEb, eb); ok && p-pred > -r && p-pred < r {
				codes[i] = int(p - pred + r)
			} else {
				c.escape(i, data[i])
			}
		}
		if i > 0 {
			dp = p - p1
		}
		p1 = p
	}
}

// prefix decodes order 1: a prefix sum of the residuals, one add carried
// from cell to cell where line(nil, 0) carries a multiply and two adds.
func (c *coder) prefix() {
	var p int64
	for i, code := range c.codes {
		if p += int64(code) - c.radius; code != 0 {
			c.out[i] = float64(p) * c.twoEb
		} else {
			p = c.unescape(i)
		}
	}
}

// grid runs the 7-term Lorenzo predictor over a 2-D or 3-D array in raster
// order, encoding data or, where data is nil, decoding the codes. It reads
// p from a pooled grid with one zero cell before each axis, so no neighbour
// needs an edge test; 2-D is nz = 1, where the k−1 slab is all halo.
func (c *coder) grid(data []float64, dims []int, work *entropy.Buf) {
	twoEb, eb, r, codes := c.twoEb, c.eb, c.radius, c.codes
	shape := [3]int{1}
	copy(shape[3-len(dims):], dims)
	nz, ny, nx := shape[0], shape[1], shape[2]
	sy, sz := nx+1, (nx+1)*(ny+1)
	g := work.Ints((nz + 1) * sz)
	clear(g[:sz])
	i := 0
	for k := 1; k <= nz; k++ {
		clear(g[k*sz:][:sy])
		for j := 1; j <= ny; j++ {
			o := k*sz + j*sy
			g[o] = 0
			for end := i + nx; i < end; i++ {
				o++
				pred, p := g[o-1]+g[o-sy]+g[o-sz]-g[o-1-sy]-g[o-1-sz]-g[o-sy-sz]+g[o-1-sy-sz], int64(0)
				if data == nil {
					if p = pred + int64(codes[i]) - r; codes[i] != 0 {
						c.out[i] = float64(p) * twoEb
					} else {
						p = c.unescape(i)
					}
				} else {
					var ok bool
					if p, ok = prequant(data[i], twoEb, eb); ok && p-pred > -r && p-pred < r {
						codes[i] = int(p - pred + r)
					} else {
						c.escape(i, data[i])
					}
				}
				g[o] = p
			}
		}
	}
}

// Compress implements compress.Compressor.
func (c *Compressor) Compress(data []float64, dims []int, bound compress.Bound) ([]byte, error) {
	return c.compress(data, dims, bound, 0)
}

// compress is Compress with the 1-D predictor order given, or chosen from
// the data where order is 0.
func (c *Compressor) compress(data []float64, dims []int, bound compress.Bound, order int) ([]byte, error) {
	if err := compress.ValidateDims(len(data), dims); err != nil {
		return nil, err
	}
	if c.Intervals < 4 || c.Intervals%2 != 0 {
		return nil, fmt.Errorf("sz: intervals must be even and >= 4, got %d", c.Intervals)
	}
	eb := bound.Absolute(data)
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("sz: invalid error bound %v", eb)
	}

	buf := entropy.Get(len(data))
	defer buf.Put()
	// Every code and grid cell is written before it is read; grid clears the halo.
	q := coder{twoEb: 2 * eb, eb: eb, radius: int64(c.Intervals / 2), codes: buf.Codes, unpred: buf.Unpred}
	if len(dims) > 1 {
		q.grid(data, dims, buf)
		order = 1
	} else {
		if order == 0 {
			order = choose1DPredictor(data)
		}
		q.line(data, int64(order-1))
	}
	if q.err != nil {
		return nil, q.err
	}

	buf.Unpred = q.unpred
	out, err := buf.Seal(c.Intervals, func(head []byte, codedLen int) []byte {
		head = binary.AppendUvarint(head, magic)
		head = binary.AppendUvarint(head, version)
		head = binary.AppendUvarint(head, uint64(len(dims)))
		for _, d := range dims {
			head = binary.AppendUvarint(head, uint64(d))
		}
		// Two reserved zeros, version 2's scheme slots, keep the body at the
		// offsets where entropy's worthThorough picks the thorough pass.
		head = binary.AppendUvarint(head, uint64(order))
		head = binary.AppendUvarint(head, 0)
		head = binary.AppendUvarint(head, uint64(c.Intervals))
		head = binary.AppendUvarint(head, math.Float64bits(eb))
		head = binary.AppendUvarint(head, uint64(len(q.unpred)))
		head = binary.AppendUvarint(head, uint64(codedLen))
		return binary.AppendUvarint(head, 0)
	})
	if err != nil {
		return nil, fmt.Errorf("sz: %w", err)
	}
	return out, nil
}

// ErrCorrupt is returned for malformed payloads.
var ErrCorrupt = errors.New("sz: corrupt payload")

// Decompress implements compress.Compressor.
func (c *Compressor) Decompress(buf []byte) ([]float64, error) {
	if len(buf) < 2 || buf[0] > 1 {
		return nil, ErrCorrupt
	}
	work := entropy.Get(0)
	defer work.Put()
	body, err := work.Open(buf)
	if err != nil {
		return nil, fmt.Errorf("%w: lossless stage: %w", ErrCorrupt, err)
	}

	r := frame.NewReader(body)
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
	order, reserved, intervals := r.Uvarint(), r.Uvarint(), r.Uvarint()
	eb := math.Float64frombits(r.Uvarint())
	nUnpred, codedLen := r.Uvarint(), r.Uvarint()
	reserved |= r.Uvarint()
	coded, raw := r.Bytes(codedLen), r.Bytes(8*nUnpred) // a wrapped 8*nUnpred fails the count check
	if r.Bad() || order < 1 || order > 2 || reserved != 0 || intervals < 4 || intervals%2 != 0 || intervals > 1<<30 ||
		eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) || nUnpred > uint64(n) {
		return nil, ErrCorrupt
	}
	if err := work.Decode(coded, n); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}

	d := coder{twoEb: 2 * eb, eb: eb, radius: int64(intervals / 2), codes: work.Codes, raw: raw, out: make([]float64, n)}
	if len(dims) > 1 {
		d.grid(nil, dims, work)
	} else if order == 1 {
		d.prefix()
	} else {
		d.line(nil, 1)
	}
	if d.err != nil || len(d.raw) != 0 {
		return nil, ErrCorrupt
	}
	return d.out, nil
}
