package sz

import (
	"math"
	"testing"

	"repro/internal/compress"
)

// smooth is a field with enough structure to exercise every encode path.
func smooth(n int) []float64 {
	data := make([]float64, n)
	for i := range data {
		x := float64(i) / float64(n)
		data[i] = math.Sin(40*x) + 0.3*math.Cos(131*x) + 0.01*math.Sin(2000*x)
	}
	return data
}

func benchRoundTrip(b *testing.B, dims []int) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	c, data, bound := New(), smooth(n), compress.RelBound(1e-4)
	payload, err := c.Compress(data, dims, bound)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("compress", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Compress(data, dims, bound); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decompress", func(b *testing.B) {
		b.SetBytes(int64(8 * n))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Decompress(payload); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// The fixed cost of a call (64 values), a TAC box (16³), a service field
// (10 k values) and a field large enough to amortise everything (1 M):
//
//	go test -run '^$' -bench 'Compress(Tiny|Box16|Field)' -benchmem ./internal/compress/sz
func BenchmarkCompressTiny(b *testing.B)     { benchRoundTrip(b, []int{64}) }
func BenchmarkCompressBox16(b *testing.B)    { benchRoundTrip(b, []int{16, 16, 16}) }
func BenchmarkCompressField10k(b *testing.B) { benchRoundTrip(b, []int{10000}) }
func BenchmarkCompressField1M(b *testing.B)  { benchRoundTrip(b, []int{1 << 20}) }
