// Package compress defines the error-bounded lossy compressor interface
// shared by the SZ-like and ZFP-like codecs, together with the error-bound
// semantics and a registry used by the CLI and benchmark harness.
package compress

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/frame"
)

// BoundMode selects how the error bound value is interpreted.
type BoundMode int

// Bound modes.
const (
	// Abs bounds the point-wise absolute error: |x' - x| <= Value.
	Abs BoundMode = iota
	// Rel bounds the point-wise error relative to the data's value range:
	// |x' - x| <= Value * (max - min).
	Rel
)

// String implements fmt.Stringer.
func (m BoundMode) String() string {
	if m == Rel {
		return "rel"
	}
	return "abs"
}

// Bound is an error-bound request.
type Bound struct {
	Mode  BoundMode
	Value float64
}

// RelBound is shorthand for a value-range-relative bound.
func RelBound(v float64) Bound { return Bound{Mode: Rel, Value: v} }

// AbsBound is shorthand for an absolute bound.
func AbsBound(v float64) Bound { return Bound{Mode: Abs, Value: v} }

// Absolute resolves the bound against the data's value range.
func (b Bound) Absolute(data []float64) float64 {
	if b.Mode == Abs {
		return b.Value
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	r := hi - lo
	if len(data) == 0 || r <= 0 || math.IsInf(r, 0) || math.IsNaN(r) {
		// Constant (or empty) data: any positive tolerance works; pick the
		// bound value itself so a zero range does not produce a zero bound.
		return b.Value
	}
	return b.Value * r
}

// Compressor is an error-bounded lossy codec for float64 arrays. dims gives
// the logical shape ({n}, {ny,nx} or {nz,ny,nx}); the product must equal
// len(data). Implementations must guarantee the point-wise bound for every
// finite input and must round-trip the array length exactly.
type Compressor interface {
	Name() string
	Compress(data []float64, dims []int, bound Bound) ([]byte, error)
	Decompress(buf []byte) ([]float64, error)
}

// Validate checks a (data, dims) pair for the Compress contract.
func Validate(data []float64, dims []int) error {
	if err := ValidateDims(len(data), dims); err != nil {
		return err
	}
	for i, v := range data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return NonFinite(i)
		}
	}
	return nil
}

// ValidateDims is Validate's shape half: dims must be 1..3 positive extents
// whose product is n.
func ValidateDims(n int, dims []int) error {
	if len(dims) < 1 || len(dims) > 3 {
		return fmt.Errorf("compress: %d dims unsupported", len(dims))
	}
	m := 1
	for _, d := range dims {
		if d <= 0 {
			return fmt.Errorf("compress: non-positive dim %d", d)
		}
		m *= d
	}
	if m != n {
		return fmt.Errorf("compress: dims %v imply %d values, data has %d", dims, m, n)
	}
	return nil
}

// NonFinite is Validate's error for a NaN or infinite value at index i.
func NonFinite(i int) error { return fmt.Errorf("compress: non-finite value at index %d", i) }

// Ratio reports the compression ratio achieved for a payload.
func Ratio(numValues int, compressed []byte) float64 {
	if len(compressed) == 0 {
		return 0
	}
	return float64(numValues*8) / float64(len(compressed))
}

// MaxElements bounds the element count a decoder will allocate for; it
// protects against corrupt or hostile headers requesting absurd sizes.
const MaxElements = 1 << 34

// CheckSize validates a decoded dimension list against MaxElements,
// returning the total element count.
func CheckSize(dims []int) (int, error) {
	n := 1
	for _, d := range dims {
		if d <= 0 {
			return 0, fmt.Errorf("compress: non-positive dim %d", d)
		}
		if n > MaxElements/d {
			return 0, fmt.Errorf("compress: dims %v exceed element limit", dims)
		}
		n *= d
	}
	return n, nil
}

// ReadShape reads the shape every dims-aware codec header carries — rank
// (1..3), then one extent per axis, all uvarints — and checks it with
// CheckSize. It returns the extents and their product; the error says which
// field was wrong and is the caller's to wrap in its own sentinel.
func ReadShape(r *frame.Reader) (dims []int, n int, err error) {
	rank := r.Uvarint()
	if r.Bad() || rank < 1 || rank > 3 {
		return nil, 0, fmt.Errorf("compress: rank %d out of range [1, 3]", rank)
	}
	dims = make([]int, rank)
	for i := range dims {
		d := r.Uvarint()
		if r.Bad() || d == 0 || d > 1<<40 {
			return nil, 0, fmt.Errorf("compress: extent %d of axis %d out of range", d, i)
		}
		dims[i] = int(d)
	}
	n, err = CheckSize(dims)
	return dims, n, err
}

// MaxExpansion bounds how many decoded values a decoder will believe one
// payload byte can carry. The most expansive legitimate path (all-zero ZFP
// blocks, or constant data through Huffman + DEFLATE) stays three orders of
// magnitude below this, while a hostile header claiming MaxElements values
// for a handful of bytes is rejected before the output array is allocated.
const MaxExpansion = 1 << 16

// PlausibleCount rejects a header-claimed element count that the available
// payload bytes could not possibly encode, so corrupt headers fail before
// allocation instead of after a multi-gigabyte make().
func PlausibleCount(n, payloadBytes int) error {
	if n < 0 || n > MaxElements {
		return fmt.Errorf("compress: element count %d out of range", n)
	}
	if payloadBytes < 0 {
		payloadBytes = 0
	}
	if n > 0 && (payloadBytes == 0 || n/payloadBytes > MaxExpansion) {
		return fmt.Errorf("compress: %d elements implausible for %d payload bytes", n, payloadBytes)
	}
	return nil
}

// ErrUnknownCodec is returned by Get for unregistered names.
var ErrUnknownCodec = errors.New("compress: unknown codec")

var (
	regMu    sync.RWMutex
	registry = map[string]func() Compressor{}
)

// Register adds a codec constructor under its name. Intended to be called
// from package init functions.
func Register(name string, ctor func() Compressor) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = ctor
}

// Get instantiates a registered codec.
func Get(name string) (Compressor, error) {
	regMu.RLock()
	ctor, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q (have %v)", ErrUnknownCodec, name, Codecs())
	}
	return ctor(), nil
}

// Codecs lists registered codec names, sorted.
func Codecs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
