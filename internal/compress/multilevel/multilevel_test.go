package multilevel

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/compress"
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

func TestDecomposeRecomposeIdentity(t *testing.T) {
	// Without quantization the transform must be exactly invertible.
	rng := rand.New(rand.NewSource(5))
	cases := [][]int{{1}, {2}, {3}, {17}, {64}, {65}, {8, 8}, {7, 9}, {16, 5}, {4, 6, 8}, {5, 5, 5}}
	for _, dims := range cases {
		n := 1
		for _, d := range dims {
			n *= d
		}
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		work := append([]float64(nil), data...)
		decompose(work, dims)
		recompose(work, dims)
		for i := range data {
			if math.Abs(work[i]-data[i]) > 1e-12*(1+math.Abs(data[i])) {
				t.Fatalf("dims %v: cell %d drifted %v -> %v", dims, i, data[i], work[i])
			}
		}
	}
}

func TestCoefficientsDecayForSmoothData(t *testing.T) {
	// For a smooth signal, fine-level detail coefficients must be tiny
	// relative to the data scale — the property the codec exploits.
	n := 1024
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(2 * math.Pi * float64(i) / float64(n))
	}
	work := append([]float64(nil), data...)
	decompose(work, []int{n})
	// Odd indices hold the finest-level details. The last node uses the
	// zeroth-order boundary predictor and carries a first-difference-sized
	// detail by design, so exclude it.
	var maxDetail float64
	for i := 1; i < n-1; i += 2 {
		if a := math.Abs(work[i]); a > maxDetail {
			maxDetail = a
		}
	}
	if maxDetail > 1e-4 {
		t.Fatalf("finest details reach %v for a smooth signal", maxDetail)
	}
}

func TestRoundTrip1D(t *testing.T) {
	c := New()
	n := 10000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/50) + 0.1*math.Cos(float64(i)/7)
	}
	for _, eb := range []float64{1e-2, 1e-4, 1e-6} {
		buf, err := c.Compress(data, []int{n}, compress.AbsBound(eb))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decompress(buf)
		if err != nil {
			t.Fatal(err)
		}
		if e := maxErr(data, got); e > eb {
			t.Fatalf("eb=%g: max error %g", eb, e)
		}
	}
}

func TestRoundTrip2D3D(t *testing.T) {
	c := New()
	ny, nx := 33, 47
	data := make([]float64, ny*nx)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			data[j*nx+i] = math.Exp(-float64((i-20)*(i-20)+(j-15)*(j-15)) / 100)
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
		t.Fatalf("2-D max error %g", e)
	}

	nz := 9
	d3 := make([]float64, nz*ny*nx)
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				d3[(k*ny+j)*nx+i] = float64(i) + 2*float64(j) - float64(k*k)/10
			}
		}
	}
	buf, err = c.Compress(d3, []int{nz, ny, nx}, compress.AbsBound(eb))
	if err != nil {
		t.Fatal(err)
	}
	got, err = c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(d3, got); e > eb {
		t.Fatalf("3-D max error %g", e)
	}
}

func TestSmoothBeatsGzipFloor(t *testing.T) {
	c := New()
	n := 65536
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i) / 100)
	}
	buf, err := c.Compress(data, []int{n}, compress.RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if r := compress.Ratio(n, buf); r < 10 {
		t.Fatalf("multilevel ratio %.2f on smooth data, want >= 10", r)
	}
}

func TestRandomDataBounded(t *testing.T) {
	c := New()
	rng := rand.New(rand.NewSource(77))
	data := make([]float64, 5000)
	for i := range data {
		data[i] = rng.NormFloat64() * 50
	}
	eb := 0.25
	buf, err := c.Compress(data, []int{len(data)}, compress.AbsBound(eb))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(data, got); e > eb {
		t.Fatalf("max error %g", e)
	}
}

func TestInvalidInputs(t *testing.T) {
	c := New()
	if _, err := c.Compress([]float64{1, 2}, []int{3}, compress.AbsBound(1e-3)); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	if _, err := c.Compress([]float64{1}, []int{1}, compress.AbsBound(0)); err == nil {
		t.Fatal("zero bound accepted")
	}
	bad := &Compressor{Intervals: 5}
	if _, err := bad.Compress([]float64{1}, []int{1}, compress.AbsBound(1)); err == nil {
		t.Fatal("odd intervals accepted")
	}
}

func TestCorrupt(t *testing.T) {
	c := New()
	if _, err := c.Decompress(nil); err == nil {
		t.Fatal("nil accepted")
	}
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	buf, err := c.Compress(data, []int{8}, compress.AbsBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(buf[:len(buf)/2]); err == nil {
		t.Fatal("truncated accepted")
	}
}

// No version 1 decoder is kept: see sz.TestVersion1Rejected.
func TestVersion1Rejected(t *testing.T) {
	c := New()
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	buf, err := c.Compress(data, []int{8}, compress.AbsBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	tiers, err := c.CompressProgressive(data, []int{8}, compress.Abs, []float64{1e-1, 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	const versionAt = 1 + 5 // marker, then the magic as a 5-byte uvarint
	for _, p := range [][]byte{buf, tiers[0].Payload} {
		if p[0] != 0 || p[versionAt] != version {
			t.Fatalf("payload starts % x: expected a raw body with the version at byte %d", p[:versionAt+1], versionAt)
		}
		p[versionAt] = 1
	}
	if _, err := c.Decompress(buf); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version 1 payload: %v, want unsupported version", err)
	}
	if _, err := c.DecompressProgressive(tiers); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version 1 tier: %v, want unsupported version", err)
	}
}

func TestRegistered(t *testing.T) {
	c, err := compress.Get("mgl")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "mgl" {
		t.Fatalf("name %q", c.Name())
	}
}

// property: the error bound holds across random walks, shapes, and bounds.
func TestBoundQuick(t *testing.T) {
	c := New()
	f := func(seed int64, size uint16, ebExp uint8, shape uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size%2000) + 1
		var dims []int
		switch shape % 3 {
		case 0:
			dims = []int{n}
		case 1:
			ny := int(math.Sqrt(float64(n)))
			if ny < 1 {
				ny = 1
			}
			nx := (n + ny - 1) / ny
			n = ny * nx
			dims = []int{ny, nx}
		default:
			nz := 3
			ny := 5
			nx := (n + nz*ny - 1) / (nz * ny)
			if nx < 1 {
				nx = 1
			}
			n = nz * ny * nx
			dims = []int{nz, ny, nx}
		}
		data := make([]float64, n)
		v := 0.0
		for i := range data {
			v += rng.NormFloat64()
			data[i] = v
		}
		eb := math.Pow(10, -float64(ebExp%7)-1)
		buf, err := c.Compress(data, dims, compress.AbsBound(eb))
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
	n := 1 << 18
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i) / 40)
	}
	b.SetBytes(int64(n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(data, []int{n}, compress.RelBound(1e-4)); err != nil {
			b.Fatal(err)
		}
	}
}
