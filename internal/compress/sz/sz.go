// Package sz implements an SZ-style error-bounded lossy compressor
// (Di & Cappello, IPDPS'16; Tao et al., IPDPS'17): each value is predicted
// by a Lorenzo predictor evaluated on previously *reconstructed* values, the
// prediction residual is quantized with linear-scaling quantization against
// the absolute error bound, quantization codes are entropy-coded with a
// canonical Huffman coder, and the whole payload is passed through a
// DEFLATE lossless stage. Values whose residual falls outside the
// quantization range are stored verbatim ("unpredictable").
//
// Like SZ, this codec is a prediction-based compressor: its ratio improves
// directly with the smoothness of the input stream, which is the property
// zMesh's reordering targets.
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
	version = 2
)

// schemeLorenzo is the one value of the header's prediction-scheme field:
// Lorenzo on reconstructed neighbours. Value 1 (SZ-2-style per-block
// regression, with its selection section) has no decoder and is refused by
// name; DESIGN.md "Retiring a header enum value" has the measurement.
const schemeLorenzo = 0

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

// predict1D predicts from previous reconstructed values. Order 1 is the
// preceding-neighbour (Lorenzo) predictor; order 2 extrapolates linearly.
func predict1D(recon []float64, i, order int) float64 {
	switch {
	case i == 0:
		return 0
	case i == 1 || order == 1:
		return recon[i-1]
	default:
		return 2*recon[i-1] - recon[i-2]
	}
}

// choose1DPredictor samples the data and picks the 1-D predictor order with
// the smaller total residual, mirroring SZ's predictor auto-tuning. Raw
// values stand in for reconstructed ones during sampling, which is exact in
// the limit of small error bounds.
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

// predict2D is the 2-D Lorenzo predictor on reconstructed values with
// out-of-range neighbours treated as zero.
func predict2D(recon []float64, nx, i, j int) float64 {
	at := func(ii, jj int) float64 {
		if ii < 0 || jj < 0 {
			return 0
		}
		return recon[jj*nx+ii]
	}
	return at(i-1, j) + at(i, j-1) - at(i-1, j-1)
}

// predict3D is the 3-D (7-term) Lorenzo predictor.
func predict3D(recon []float64, nx, ny, i, j, k int) float64 {
	at := func(ii, jj, kk int) float64 {
		if ii < 0 || jj < 0 || kk < 0 {
			return 0
		}
		return recon[(kk*ny+jj)*nx+ii]
	}
	return at(i-1, j, k) + at(i, j-1, k) + at(i, j, k-1) -
		at(i-1, j-1, k) - at(i-1, j, k-1) - at(i, j-1, k-1) +
		at(i-1, j-1, k-1)
}

// Compress implements compress.Compressor.
func (c *Compressor) Compress(data []float64, dims []int, bound compress.Bound) ([]byte, error) {
	if err := compress.Validate(data, dims); err != nil {
		return nil, err
	}
	if c.Intervals < 4 || c.Intervals%2 != 0 {
		return nil, fmt.Errorf("sz: intervals must be even and >= 4, got %d", c.Intervals)
	}
	eb := bound.Absolute(data)
	if eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) {
		return nil, fmt.Errorf("sz: invalid error bound %v", eb)
	}
	n := len(data)
	radius := c.Intervals / 2
	twoEb := 2 * eb

	buf := entropy.Get(n)
	defer buf.Put()
	// Every cell's code and reconstruction are written before any predictor
	// reads them, so the pooled arrays need no clearing.
	codes, recon, unpred := buf.Codes, buf.Work, buf.Unpred

	quantize := func(idx int, pred float64) {
		v := data[idx]
		diff := v - pred
		q := math.Floor(diff/twoEb + 0.5)
		if math.Abs(q) < float64(radius) {
			r := pred + q*twoEb
			// Guard against floating-point slop in pred+q*twoEb.
			if math.Abs(r-v) <= eb {
				codes[idx] = int(q) + radius
				recon[idx] = r
				return
			}
		}
		codes[idx] = 0
		unpred = append(unpred, v)
		recon[idx] = v
	}

	predOrder := 1
	switch len(dims) {
	case 1:
		predOrder = choose1DPredictor(data)
		for i := 0; i < n; i++ {
			quantize(i, predict1D(recon, i, predOrder))
		}
	case 2:
		ny, nx := dims[0], dims[1]
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				quantize(j*nx+i, predict2D(recon, nx, i, j))
			}
		}
	case 3:
		nz, ny, nx := dims[0], dims[1], dims[2]
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					quantize((k*ny+j)*nx+i, predict3D(recon, nx, ny, i, j, k))
				}
			}
		}
	}

	buf.Unpred = unpred
	out, err := buf.Seal(c.Intervals, func(head []byte, codedLen int) []byte {
		head = binary.AppendUvarint(head, magic)
		head = binary.AppendUvarint(head, version)
		head = binary.AppendUvarint(head, uint64(len(dims)))
		for _, d := range dims {
			head = binary.AppendUvarint(head, uint64(d))
		}
		head = binary.AppendUvarint(head, uint64(predOrder))
		head = binary.AppendUvarint(head, schemeLorenzo)
		head = binary.AppendUvarint(head, uint64(c.Intervals))
		head = binary.AppendUvarint(head, math.Float64bits(eb))
		head = binary.AppendUvarint(head, uint64(len(unpred)))
		head = binary.AppendUvarint(head, uint64(codedLen))
		return binary.AppendUvarint(head, 0) // scheme 1's selection section: empty
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
	predOrder, scheme := r.Uvarint(), r.Uvarint()
	if r.Bad() || predOrder < 1 || predOrder > 2 {
		return nil, ErrCorrupt
	}
	if scheme != schemeLorenzo {
		return nil, fmt.Errorf("sz: unsupported prediction scheme %d (only Lorenzo, scheme 0, decodes; scheme 1, block regression, was retired)", scheme)
	}
	intervals := r.Uvarint()
	eb := math.Float64frombits(r.Uvarint())
	nUnpred, codedLen, selLen := r.Uvarint(), r.Uvarint(), r.Uvarint()
	// No more values escape than there are values, so 8*nUnpred cannot wrap.
	if r.Bad() || intervals < 4 || intervals%2 != 0 || intervals > 1<<30 ||
		eb <= 0 || math.IsNaN(eb) || math.IsInf(eb, 0) || nUnpred > uint64(n) {
		return nil, ErrCorrupt
	}
	if selLen != 0 {
		return nil, fmt.Errorf("sz: unsupported %d-byte selection section (it belonged to scheme 1, block regression, which was retired)", selLen)
	}
	radius := int(intervals) / 2
	coded, rawUnpred := r.Bytes(codedLen), r.Bytes(8*nUnpred)
	if r.Bad() {
		return nil, ErrCorrupt
	}

	if err := work.Decode(coded, n); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	codes := work.Codes
	unpred := make([]float64, nUnpred)
	for i := range unpred {
		unpred[i] = math.Float64frombits(binary.LittleEndian.Uint64(rawUnpred[8*i:]))
	}

	twoEb := 2 * eb
	recon := make([]float64, n)
	ui := 0
	apply := func(idx int, pred float64) error {
		code := codes[idx]
		if code == 0 {
			if ui >= len(unpred) {
				return ErrCorrupt
			}
			recon[idx] = unpred[ui]
			ui++
			return nil
		}
		recon[idx] = pred + float64(code-radius)*twoEb
		return nil
	}
	switch len(dims) {
	case 1:
		for i := 0; i < n; i++ {
			if err := apply(i, predict1D(recon, i, int(predOrder))); err != nil {
				return nil, err
			}
		}
	case 2:
		ny, nx := dims[0], dims[1]
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				if err := apply(j*nx+i, predict2D(recon, nx, i, j)); err != nil {
					return nil, err
				}
			}
		}
	case 3:
		nz, ny, nx := dims[0], dims[1], dims[2]
		for k := 0; k < nz; k++ {
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					if err := apply((k*ny+j)*nx+i, predict3D(recon, nx, ny, i, j, k)); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if ui != len(unpred) {
		return nil, ErrCorrupt
	}
	return recon, nil
}
