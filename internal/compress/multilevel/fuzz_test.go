package multilevel

import (
	"math"
	"testing"

	"repro/internal/compress"
)

// FuzzDecompressProgressive drives the tier decode path, whose geometry
// walk (recompose) indexes by the header dims and must therefore reject any
// code stream whose length disagrees with them.
func FuzzDecompressProgressive(f *testing.F) {
	c := New()
	data := make([]float64, 400)
	for i := range data {
		data[i] = math.Sin(float64(i) / 17)
	}
	tiers, err := c.CompressProgressive(data, []int{400}, compress.Abs, []float64{1e-1, 1e-2, 1e-3})
	if err == nil {
		for _, tier := range tiers {
			f.Add(tier.Payload)
		}
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, buf []byte) {
		out, err := c.DecompressProgressive([]Tier{{Bound: 1e-1, Payload: buf}})
		if err == nil && len(buf) > 0 && len(out) > compress.MaxExpansion*len(buf) {
			t.Fatalf("decoded %d values from %d bytes", len(out), len(buf))
		}
	})
}
