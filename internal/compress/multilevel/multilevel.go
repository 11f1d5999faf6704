// Package multilevel is the progressive tier cascade behind tiered reads
// (Wan et al., "Error-controlled, progressive, and adaptable retrieval of
// scientific data with multilevel decomposition"): a 1-D stream is encoded
// once into a sequence of tiers with decreasing error bounds. A reader
// fetches tiers incrementally — after any prefix of k tiers the
// reconstruction satisfies the k-th bound, so analyses requesting coarse
// accuracy move a fraction of the bytes.
//
// The coefficients are the hierarchical (interpolation) basis of MGARD
// (Ainsworth, Tugluk, Whitney, Klasky — "Multilevel techniques for
// compression and reduction of scientific data") without its L²-projection
// correction: at each level, nodes at odd multiples of the stride are
// replaced by their deviation from the linear interpolant of their even
// neighbours. For smooth data the coefficients decay with level, so coarse
// tiers carry almost all the signal. Tier k stores the quantized residual
// between the true coefficients and those reconstructed from tiers 0..k-1,
// entropy coded like SZ's codes (canonical Huffman + DEFLATE).
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
	tierMagic = 0x4d474c54 // "MGLT"
	version   = 2
	// intervals is the quantization capacity (Huffman alphabet size).
	intervals = 65536
)

// ErrCorrupt is returned for malformed tier payloads.
var ErrCorrupt = errors.New("multilevel: corrupt tier")

// Tier is one increment of a progressive encoding.
type Tier struct {
	// Bound is the absolute error bound guaranteed after decoding this and
	// all previous tiers.
	Bound float64
	// Payload is the tier's encoded residual stream.
	Payload []byte
}

// Compressor encodes and decodes tier cascades.
type Compressor struct{}

// New returns the tier codec.
func New() *Compressor { return &Compressor{} }

// decompose applies the hierarchical transform in place, finest level
// first: at stride s = 1, 2, 4, ... while 2s < n, every node at an odd
// multiple of s becomes its deviation from predict.
func decompose(data []float64) {
	for s := 1; 2*s < len(data); s *= 2 {
		for i := s; i < len(data); i += 2 * s {
			data[i] -= predict(data, s, i)
		}
	}
}

// recompose inverts decompose, coarsest level first.
func recompose(data []float64) {
	top := 0
	for s := 1; 2*s < len(data); s *= 2 {
		top = s
	}
	for s := top; s >= 1; s /= 2 {
		for i := s; i < len(data); i += 2 * s {
			data[i] += predict(data, s, i)
		}
	}
}

// predict predicts the odd node at i from the kept (even-multiple) nodes:
// the linear interpolant of its neighbours in the interior and the left
// neighbour alone at the right boundary. The boundary deliberately stays
// zeroth-order: its prediction weights sum to 1 in magnitude, which keeps
// the level-wise error amplification linear (amplification); a linear
// extrapolation (weights 2, −1) would compound neighbour errors by 3 per
// level and break the worst-case bound. Predictions read only kept nodes,
// so decompose and recompose apply them identically.
func predict(data []float64, s, i int) float64 {
	if i+s < len(data) {
		return 0.5 * (data[i-s] + data[i+s])
	}
	return data[i-s]
}

// amplification bounds how much per-coefficient quantization error can
// grow through recompose: each inverse level adds at most the mean of two
// already-erroneous neighbours on top of the coefficient's own error, so
// the worst case is one more than the level count.
func amplification(n int) float64 {
	amp := 1
	for s := 1; 2*s < n; s *= 2 {
		amp++
	}
	return float64(amp)
}

// CompressProgressive encodes data into one tier per bound. dims must be
// 1-D: tiers code the level-order stream of a field. Bounds must be
// strictly decreasing and positive; they are interpreted per the given
// bound mode against the whole dataset (Rel resolves against the range).
func (c *Compressor) CompressProgressive(data []float64, dims []int, mode compress.BoundMode, bounds []float64) ([]Tier, error) {
	if err := compress.Validate(data, dims); err != nil {
		return nil, err
	}
	if len(dims) != 1 {
		return nil, fmt.Errorf("multilevel: tiers code a 1-D stream, got dims %v", dims)
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("multilevel: no tier bounds given")
	}
	abs := make([]float64, len(bounds))
	for i, b := range bounds {
		a := compress.Bound{Mode: mode, Value: b}.Absolute(data)
		if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("multilevel: invalid tier bound %v", b)
		}
		if i > 0 && a >= abs[i-1] {
			return nil, fmt.Errorf("multilevel: tier bounds must decrease (%v >= %v)", a, abs[i-1])
		}
		abs[i] = a
	}

	buf := entropy.Get(len(data))
	defer buf.Put()
	coeffs, codes := buf.Floats(len(data)), buf.Codes
	copy(coeffs, data)
	decompose(coeffs)
	amp := amplification(len(data))
	reconC := make([]float64, len(coeffs))
	const radius = intervals / 2

	tiers := make([]Tier, 0, len(abs))
	for ti, bound := range abs {
		q := bound / amp
		twoQ := 2 * q
		buf.Unpred = buf.Unpred[:0]
		for i, v := range coeffs {
			r := v - reconC[i]
			k := math.Floor(r/twoQ + 0.5)
			if math.Abs(k) < radius {
				d := k * twoQ
				if math.Abs(d-r) <= q {
					codes[i] = int(k) + radius
					reconC[i] += d
					continue
				}
			}
			codes[i] = 0
			buf.Unpred = append(buf.Unpred, r)
			reconC[i] = v
		}
		payload, err := buf.Seal(intervals, func(head []byte, codedLen int) []byte {
			head = binary.AppendUvarint(head, tierMagic)
			head = binary.AppendUvarint(head, version)
			head = binary.AppendUvarint(head, uint64(ti))
			head = binary.AppendUvarint(head, 1) // rank: the shape stays in the format
			head = binary.AppendUvarint(head, uint64(len(data)))
			head = binary.AppendUvarint(head, intervals)
			head = binary.AppendUvarint(head, math.Float64bits(q))
			head = binary.AppendUvarint(head, uint64(len(buf.Unpred)))
			return binary.AppendUvarint(head, uint64(codedLen))
		})
		if err != nil {
			return nil, fmt.Errorf("multilevel: tier %d: %w", ti, err)
		}
		tiers = append(tiers, Tier{Bound: bound, Payload: payload})
	}
	return tiers, nil
}

// tierStream is one parsed tier: quantization codes (0 = escape) still in
// the entropy.Buf that decoded them, and the escaped residuals.
type tierStream struct {
	index     int
	radius    int
	q         float64
	codes     []int
	rawUnpred []byte // float64-LE
}

// parseTier undoes the lossless and entropy stages of a tier payload and
// validates every header field against the bytes that remain. The result
// aliases work and buf.
func parseTier(work *entropy.Buf, buf []byte) (tierStream, error) {
	var st tierStream
	if len(buf) < 2 || buf[0] > 1 {
		return st, ErrCorrupt
	}
	body, err := work.Open(buf)
	if err != nil {
		return st, fmt.Errorf("%w: lossless stage: %w", ErrCorrupt, err)
	}
	r := frame.NewReader(body)
	if r.Uvarint() != tierMagic || r.Bad() {
		return st, ErrCorrupt
	}
	if ver := r.Uvarint(); ver != version || r.Bad() {
		return st, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	st.index = int(r.Uvarint())
	dims, n, err := compress.ReadShape(&r)
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if len(dims) != 1 {
		return st, fmt.Errorf("%w: shape %v is not 1-D", ErrCorrupt, dims)
	}
	alphabet := r.Uvarint()
	st.radius = int(alphabet / 2)
	st.q = math.Float64frombits(r.Uvarint())
	nUnpred, codedLen := r.Uvarint(), r.Uvarint()
	// No more values escape than there are values, so 8*nUnpred cannot wrap.
	if r.Bad() || alphabet < 4 || alphabet%2 != 0 || alphabet > 1<<30 ||
		st.q <= 0 || math.IsNaN(st.q) || math.IsInf(st.q, 0) || nUnpred > uint64(n) {
		return st, ErrCorrupt
	}
	coded := r.Bytes(codedLen)
	st.rawUnpred = r.Bytes(8 * nUnpred)
	if r.Bad() {
		return st, ErrCorrupt
	}
	// recompose walks the header's extent, so the code count must match.
	if err := work.Decode(coded, n); err != nil {
		return st, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	st.codes = work.Codes
	return st, nil
}

// accumulate adds the stream's dequantized coefficients into coeffs; an
// escaped coefficient adds its stored residual verbatim, which makes it
// exact from this tier on.
func (st *tierStream) accumulate(coeffs []float64) error {
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

// DecompressProgressive reconstructs from any prefix of tiers; the result
// satisfies the last provided tier's bound.
func (c *Compressor) DecompressProgressive(tiers []Tier) ([]float64, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("multilevel: no tiers")
	}
	work := entropy.Get(0)
	defer work.Put()
	var out []float64
	for ti, tier := range tiers {
		st, err := parseTier(work, tier.Payload)
		if err != nil {
			return nil, fmt.Errorf("multilevel: tier %d: %w", ti, err)
		}
		if st.index != ti {
			return nil, fmt.Errorf("multilevel: tier %d out of order (stream says %d)", ti, st.index)
		}
		if out == nil {
			out = make([]float64, len(st.codes))
		} else if len(st.codes) != len(out) {
			return nil, fmt.Errorf("multilevel: tier %d has %d values, tier 0 has %d", ti, len(st.codes), len(out))
		}
		if err := st.accumulate(out); err != nil {
			return nil, err
		}
	}
	recompose(out)
	return out, nil
}
