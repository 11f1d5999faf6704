package sz

import (
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/compress"
	"repro/internal/compress/entropy"
)

func maxErr(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if e := math.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func smoothSignal(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / float64(n)
		out[i] = math.Sin(2*math.Pi*5*t) + 0.3*math.Cos(2*math.Pi*17*t)
	}
	return out
}

func TestRoundTrip1D(t *testing.T) {
	c := New()
	data := smoothSignal(10000)
	for _, eb := range []float64{1e-1, 1e-3, 1e-6} {
		buf, err := c.Compress(data, []int{len(data)}, compress.AbsBound(eb))
		if err != nil {
			t.Fatalf("eb=%g: %v", eb, err)
		}
		got, err := c.Decompress(buf)
		if err != nil {
			t.Fatalf("eb=%g: %v", eb, err)
		}
		if len(got) != len(data) {
			t.Fatalf("eb=%g: %d values", eb, len(got))
		}
		if e := maxErr(data, got); e > eb {
			t.Fatalf("eb=%g: max error %g exceeds bound", eb, e)
		}
	}
}

func TestSmoothCompressesWell(t *testing.T) {
	c := New()
	data := smoothSignal(100000)
	buf, err := c.Compress(data, []int{len(data)}, compress.RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if r := compress.Ratio(len(data), buf); r < 8 {
		t.Fatalf("smooth signal ratio %.2f, want >= 8", r)
	}
}

func TestSmootherMeansSmaller(t *testing.T) {
	// The core property zMesh relies on: for the same values in a different
	// order, a smoother ordering compresses better.
	c := New()
	n := 50000
	smooth := smoothSignal(n)
	shuffled := append([]float64(nil), smooth...)
	rng := rand.New(rand.NewSource(5))
	rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	bs, err := c.Compress(smooth, []int{n}, compress.AbsBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	bsh, err := c.Compress(shuffled, []int{n}, compress.AbsBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) >= len(bsh) {
		t.Fatalf("smooth %d bytes not smaller than shuffled %d bytes", len(bs), len(bsh))
	}
}

func TestRoundTrip2D(t *testing.T) {
	c := New()
	ny, nx := 64, 96
	data := make([]float64, ny*nx)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			data[j*nx+i] = math.Sin(float64(i)/7) * math.Cos(float64(j)/5)
		}
	}
	eb := 1e-4
	buf, err := c.Compress(data, []int{ny, nx}, compress.AbsBound(eb))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(data, got); e > eb {
		t.Fatalf("2-D max error %g exceeds %g", e, eb)
	}
}

func TestRoundTrip3D(t *testing.T) {
	c := New()
	nz, ny, nx := 16, 24, 20
	data := make([]float64, nz*ny*nx)
	idx := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				data[idx] = float64(i+j+k) + math.Sin(float64(idx)/50)
				idx++
			}
		}
	}
	eb := 1e-3
	buf, err := c.Compress(data, []int{nz, ny, nx}, compress.AbsBound(eb))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(data, got); e > eb {
		t.Fatalf("3-D max error %g exceeds %g", e, eb)
	}
}

func TestRandomDataBounded(t *testing.T) {
	// Worst case: white noise. Ratio will be poor but the bound must hold.
	c := New()
	rng := rand.New(rand.NewSource(42))
	data := make([]float64, 20000)
	for i := range data {
		data[i] = rng.NormFloat64() * 100
	}
	eb := 0.5
	buf, err := c.Compress(data, []int{len(data)}, compress.AbsBound(eb))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(data, got); e > eb {
		t.Fatalf("max error %g exceeds %g", e, eb)
	}
}

func TestConstantData(t *testing.T) {
	c := New()
	data := make([]float64, 5000)
	for i := range data {
		data[i] = 3.14159
	}
	buf, err := c.Compress(data, []int{len(data)}, compress.RelBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if math.Abs(v-3.14159) > 1e-3 {
			t.Fatalf("value %d = %v", i, v)
		}
	}
	if r := compress.Ratio(len(data), buf); r < 100 {
		t.Fatalf("constant data ratio %.1f, want >= 100", r)
	}
}

func TestRelativeBound(t *testing.T) {
	c := New()
	data := smoothSignal(10000)
	lo, hi := data[0], data[0]
	for _, v := range data {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	rel := 1e-3
	buf, err := c.Compress(data, []int{len(data)}, compress.RelBound(rel))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(data, got); e > rel*(hi-lo) {
		t.Fatalf("max error %g exceeds relative bound %g", e, rel*(hi-lo))
	}
}

func TestTinyInputs(t *testing.T) {
	c := New()
	for _, n := range []int{1, 2, 3, 5} {
		data := make([]float64, n)
		for i := range data {
			data[i] = float64(i) * 1.5
		}
		buf, err := c.Compress(data, []int{n}, compress.AbsBound(1e-6))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := c.Decompress(buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: got %d", n, len(got))
		}
		if e := maxErr(data, got); e > 1e-6 {
			t.Fatalf("n=%d: error %g", n, e)
		}
	}
}

func TestInvalidInputs(t *testing.T) {
	c := New()
	if _, err := c.Compress([]float64{1, 2}, []int{3}, compress.AbsBound(1e-3)); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	if _, err := c.Compress([]float64{1, math.NaN()}, []int{2}, compress.AbsBound(1e-3)); err == nil {
		t.Fatal("NaN accepted")
	}
	if _, err := c.Compress([]float64{1, 2}, []int{2}, compress.AbsBound(0)); err == nil {
		t.Fatal("zero bound accepted")
	}
	if _, err := c.Compress([]float64{1, 2}, []int{2}, compress.AbsBound(-1)); err == nil {
		t.Fatal("negative bound accepted")
	}
	bad := &Compressor{Intervals: 7}
	if _, err := bad.Compress([]float64{1, 2}, []int{2}, compress.AbsBound(1e-3)); err == nil {
		t.Fatal("odd intervals accepted")
	}
}

func TestCorruptPayload(t *testing.T) {
	c := New()
	data := smoothSignal(1000)
	buf, err := c.Compress(data, []int{1000}, compress.AbsBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := c.Decompress(buf[:3]); err == nil {
		t.Fatal("truncated accepted")
	}
	garbage := append([]byte{0}, 0xde, 0xad, 0xbe, 0xef)
	if _, err := c.Decompress(garbage); err == nil {
		t.Fatal("garbage accepted")
	}
}

// rawForm re-assembles a payload in the raw (marker 0) form: header in the
// clear, no DEFLATE, whichever form Compress chose.
func rawForm(t testing.TB, buf []byte) []byte {
	t.Helper()
	work := entropy.Get(0)
	defer work.Put()
	body, err := work.Open(buf)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{0}, body...)
}

// The decoder takes either form of the lossless stage, whatever the encoder
// would have chosen for the stream.
func TestRawFormDecodes(t *testing.T) {
	data := smoothSignal(5000)
	buf, err := New().Compress(data, []int{5000}, compress.AbsBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	got, err := New().Decompress(rawForm(t, buf))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(data) || maxErr(data, got) > 1e-4 {
		t.Fatalf("%d values, error %g", len(got), maxErr(data, got))
	}
}

// No decoder is kept for an older stream version: version 1 had another
// entropy stage, version 2 predicted from reconstructed floats instead of
// pre-quantized integers. Either header must be refused by name, not decoded
// with the wrong coder or predictor.
func TestVersion1Rejected(t *testing.T) {
	buf, err := New().Compress(smoothSignal(100), []int{100}, compress.AbsBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	buf = rawForm(t, buf)
	const versionAt = 1 + 5 // marker, then the magic as a 5-byte uvarint
	if buf[versionAt] != version {
		t.Fatalf("byte %d is %d, expected the version", versionAt, buf[versionAt])
	}
	for _, old := range []byte{1, 2} {
		buf[versionAt] = old
		want := fmt.Sprintf("unsupported version %d", old)
		if _, err := New().Decompress(buf); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d payload: %v, want %q", old, err, want)
		}
	}
}

// regressionStream is a 4×6 ramp compressed at abs 1e-3 by the last commit
// whose encoder wrote prediction scheme 1 (per-block regression, retired at
// PR 26): raw form, version 2, one block, regression selected, 13 selection
// bytes.
const regressionStream = "00b18ee99a05020204060101808004fcd3c697ddc998a83f00130d" +
	"0100a0800000007f0000007e000000010006000c001800100010030000002001"

// Only version 2 streams ever declared scheme 1, and no version 2 decoder
// is kept: the stream is refused by its version before anything else. In
// version 3 the scheme and selection-length slots are reserved zeros, and a
// stream with anything else there is corrupt.
func TestRegressionStreamRejected(t *testing.T) {
	buf, err := hex.DecodeString(regressionStream)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().Decompress(buf); err == nil || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("scheme 1 stream: %v, want an error naming version 2", err)
	}
	const versionAt, schemeAt = 1 + 5, 1 + 5 + 1 + 3 + 1 // marker, magic, version, ndims + 2 extents, predictor order
	buf[versionAt] = version
	if _, err := New().Decompress(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version 3 stream with a non-zero reserved field: %v, want ErrCorrupt", err)
	}
	buf[schemeAt] = 0
	if _, err := New().Decompress(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version 3 stream with a non-zero reserved selection length: %v, want ErrCorrupt", err)
	}
}

// Multi-D Lorenzo over extents that are odd, prime or degenerate (a single
// row, column or pencil): the point-wise bound must hold at every cell.
func TestLorenzoRoundTripOddSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := New()
	for _, dims := range [][]int{{7, 13}, {1, 29}, {29, 1}, {5, 6, 7}, {1, 1, 31}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		data := make([]float64, n)
		v := 0.0
		for i := range data {
			v += rng.NormFloat64()
			data[i] = v
		}
		eb := 1e-3
		buf, err := c.Compress(data, dims, compress.AbsBound(eb))
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		got, err := c.Decompress(buf)
		if err != nil {
			t.Fatalf("dims %v: %v", dims, err)
		}
		if len(got) != n {
			t.Fatalf("dims %v: %d values back, want %d", dims, len(got), n)
		}
		if e := maxErr(data, got); e > eb {
			t.Fatalf("dims %v: max error %g", dims, e)
		}
	}
}

func TestRegistry(t *testing.T) {
	c, err := compress.Get("sz")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "sz" {
		t.Fatalf("name %q", c.Name())
	}
}

// property: for random smooth-ish walks, bound holds at every point and the
// length round-trips, at every tested error bound.
func TestBoundQuick(t *testing.T) {
	c := New()
	f := func(seed int64, size uint16, ebExp uint8) bool {
		n := int(size%3000) + 1
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, n)
		v := 0.0
		for i := range data {
			v += rng.NormFloat64()
			data[i] = v
		}
		eb := math.Pow(10, -float64(ebExp%7)-1)
		buf, err := c.Compress(data, []int{n}, compress.AbsBound(eb))
		if err != nil {
			return false
		}
		got, err := c.Decompress(buf)
		if err != nil || len(got) != n {
			return false
		}
		return maxErr(data, got) <= eb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCompress1D(b *testing.B) {
	c := New()
	data := smoothSignal(1 << 18)
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(data, []int{len(data)}, compress.RelBound(1e-4)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress1D(b *testing.B) {
	c := New()
	data := smoothSignal(1 << 18)
	buf, err := c.Compress(data, []int{len(data)}, compress.RelBound(1e-4))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Decompress(buf); err != nil {
			b.Fatal(err)
		}
	}
}
