package multilevel

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/compress"
	"repro/internal/compress/entropy"
)

// Progressive retrieval (Wan et al., "Error-controlled, progressive, and
// adaptable retrieval of scientific data with multilevel decomposition"):
// the multilevel coefficients are encoded once into a sequence of tiers
// with decreasing error bounds. A reader fetches tiers incrementally —
// after any prefix of k tiers the reconstruction satisfies the k-th bound,
// so analyses requesting coarse accuracy move a fraction of the bytes.
// Tier k stores the quantized residual between the true coefficients and
// the coefficients reconstructed from tiers 0..k-1.

const tierMagic = 0x4d474c54 // "MGLT"

// Tier is one increment of a progressive encoding.
type Tier struct {
	// Bound is the absolute error bound guaranteed after decoding this and
	// all previous tiers.
	Bound float64
	// Payload is the tier's encoded residual stream.
	Payload []byte
}

// CompressProgressive encodes data into one tier per bound. Bounds must be
// strictly decreasing and positive; they are interpreted per the given
// bound mode against the whole dataset (Rel resolves against the range).
func (c *Compressor) CompressProgressive(data []float64, dims []int, mode compress.BoundMode, bounds []float64) ([]Tier, error) {
	if err := compress.Validate(data, dims); err != nil {
		return nil, err
	}
	if c.Intervals < 4 || c.Intervals%2 != 0 {
		return nil, fmt.Errorf("mgl: intervals must be even and >= 4, got %d", c.Intervals)
	}
	if len(bounds) == 0 {
		return nil, fmt.Errorf("mgl: no tier bounds given")
	}
	abs := make([]float64, len(bounds))
	for i, b := range bounds {
		a := compress.Bound{Mode: mode, Value: b}.Absolute(data)
		if a <= 0 || math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("mgl: invalid tier bound %v", b)
		}
		if i > 0 && a >= abs[i-1] {
			return nil, fmt.Errorf("mgl: tier bounds must decrease (%v >= %v)", a, abs[i-1])
		}
		abs[i] = a
	}

	buf := entropy.Get(len(data))
	defer buf.Put()
	coeffs, codes := buf.Work, buf.Codes
	copy(coeffs, data)
	decompose(coeffs, dims)
	amp := errorAmplification(dims)
	reconC := make([]float64, len(coeffs))
	radius := c.Intervals / 2

	tiers := make([]Tier, 0, len(abs))
	for ti, bound := range abs {
		q := bound / amp
		twoQ := 2 * q
		buf.Unpred = buf.Unpred[:0]
		for i, v := range coeffs {
			r := v - reconC[i]
			k := math.Floor(r/twoQ + 0.5)
			if math.Abs(k) < float64(radius) {
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
		payload, err := buf.Seal(c.Intervals, func(head []byte, codedLen int) []byte {
			head = binary.AppendUvarint(head, tierMagic)
			head = binary.AppendUvarint(head, version)
			head = binary.AppendUvarint(head, uint64(ti))
			head = appendDims(head, dims)
			head = binary.AppendUvarint(head, uint64(c.Intervals))
			head = binary.AppendUvarint(head, math.Float64bits(q))
			head = binary.AppendUvarint(head, uint64(len(buf.Unpred)))
			return binary.AppendUvarint(head, uint64(codedLen))
		})
		if err != nil {
			return nil, fmt.Errorf("mgl: tier %d: %w", ti, err)
		}
		tiers = append(tiers, Tier{Bound: bound, Payload: payload})
	}
	return tiers, nil
}

// DecompressProgressive reconstructs from any prefix of tiers; the result
// satisfies the last provided tier's bound.
func (c *Compressor) DecompressProgressive(tiers []Tier) ([]float64, error) {
	if len(tiers) == 0 {
		return nil, fmt.Errorf("mgl: no tiers")
	}
	work := entropy.Get(0)
	defer work.Put()
	var out []float64
	var dims []int
	for ti, tier := range tiers {
		st, err := parseStream(work, tier.Payload, tierMagic)
		if err != nil {
			return nil, fmt.Errorf("mgl: tier %d: %w", ti, err)
		}
		if st.tier != ti {
			return nil, fmt.Errorf("mgl: tier %d out of order (stream says %d)", ti, st.tier)
		}
		if dims == nil {
			dims = st.dims
			out = make([]float64, len(st.codes))
		} else if !slices.Equal(dims, st.dims) {
			return nil, fmt.Errorf("mgl: tier %d dims %v mismatch %v", ti, st.dims, dims)
		}
		// A raw residual makes its coefficient exact from this tier on.
		if err := st.accumulate(out); err != nil {
			return nil, err
		}
	}
	recompose(out, dims)
	return out, nil
}
