package sz

import (
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
