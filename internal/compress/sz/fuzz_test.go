package sz

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/compress"
)

// FuzzDecompress feeds arbitrary bytes to the SZ decoder, seeded with valid
// round-trip payloads across dimensionalities and alphabet sizes. The
// decoder must never panic and must never report more values than the
// payload could plausibly encode.
func FuzzDecompress(f *testing.F) {
	data := make([]float64, 600)
	for i := range data {
		data[i] = math.Sin(float64(i)/9) + 0.3*math.Cos(float64(i)/2)
	}
	// The default alphabet, a small one, and the smallest (nearly every
	// value escapes); the default's payloads also in the raw form.
	for _, c := range []*Compressor{New(), {Intervals: 64}, {Intervals: 4}} {
		for _, dims := range [][]int{{600}, {20, 30}, {10, 6, 10}} {
			buf, err := c.Compress(data, dims, compress.AbsBound(1e-3))
			if err != nil {
				f.Fatal(err)
			}
			f.Add(buf)
			if c.Intervals == DefaultIntervals {
				f.Add(rawForm(f, buf))
			}
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1, 0xff})

	c := New()
	f.Fuzz(func(t *testing.T, buf []byte) {
		out, err := c.Decompress(buf)
		if err == nil && len(buf) > 0 && len(out) > compress.MaxExpansion*len(buf) {
			t.Fatalf("decoded %d values from %d bytes", len(out), len(buf))
		}
	})
}

// FuzzCompressBound holds the encoder to its contract on arbitrary input.
// The first byte picks the rank and the next two the leading extents, the
// fourth the absolute bound (2^-k for k up to 95, times 1 to 2); the rest
// are float64-LE values, cut to a whole number of rows. The result is an
// error naming a non-finite value if there is one, and otherwise a payload
// that decodes to every value within the bound.
func FuzzCompressBound(f *testing.F) {
	seed := func(rank, a, b, k byte, vals ...float64) []byte {
		out := []byte{rank, a, b, k}
		for _, v := range vals {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	wave := make([]float64, 60)
	for i := range wave {
		wave[i] = math.Sin(float64(i)/5) * 100
	}
	f.Add(seed(0, 0, 0, 10, wave...))
	f.Add(seed(1, 6, 0, 20, wave...))
	f.Add(seed(2, 3, 4, 40, wave...))
	f.Add(seed(0, 0, 0, 0, 1, math.Ldexp(1, 60), -3, 1e-300, 0.5, 1.5, 2.5))
	f.Add(seed(1, 2, 0, 95, 1, 2, math.NaN(), 4))
	f.Add(seed(0, 0, 0, 3, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(-1)))

	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 4+8 {
			return
		}
		eb := math.Ldexp(1+float64(in[3])/256, -int(in[3]%96))
		vals := make([]float64, (len(in)-4)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(in[4+8*i:]))
		}
		n := len(vals)
		dims := []int{n}
		switch in[0] % 3 {
		case 1:
			a := 1 + int(in[1])%n
			dims = []int{a, n / a}
		case 2:
			a := 1 + int(in[1])%n
			b := 1 + int(in[2])%(n/a)
			dims = []int{a, b, n / (a * b)}
		}
		m := 1
		for _, d := range dims {
			m *= d
		}
		vals = vals[:m]
		bad := -1
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				bad = i
				break
			}
		}
		buf, err := New().Compress(vals, dims, compress.AbsBound(eb))
		if bad >= 0 {
			if err == nil || err.Error() != compress.NonFinite(bad).Error() {
				t.Fatalf("non-finite value at %d: %v", bad, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("dims %v, bound %g: %v", dims, eb, err)
		}
		got, err := New().Decompress(buf)
		if err != nil {
			t.Fatalf("dims %v, bound %g: %v", dims, eb, err)
		}
		if len(got) != m {
			t.Fatalf("dims %v: %d values back, want %d", dims, len(got), m)
		}
		for i, v := range vals {
			if !(math.Abs(got[i]-v) <= eb) {
				t.Fatalf("dims %v, bound %g: value %d is %v, decoded %v", dims, eb, i, v, got[i])
			}
		}
	})
}
