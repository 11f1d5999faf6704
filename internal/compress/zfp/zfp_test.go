package zfp

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
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

func TestPermTables(t *testing.T) {
	for _, dims := range []int{1, 2, 3} {
		pm := perms[dims]
		size := 1 << (2 * uint(dims))
		if len(pm) != size {
			t.Fatalf("dims=%d: perm length %d", dims, len(pm))
		}
		seen := make([]bool, size)
		prevDeg := -1
		for _, p := range pm {
			if p < 0 || p >= size || seen[p] {
				t.Fatalf("dims=%d: invalid perm %v", dims, pm)
			}
			seen[p] = true
			deg := 0
			for k := 0; k < dims; k++ {
				deg += (p >> (2 * uint(k))) & 3
			}
			if deg < prevDeg {
				t.Fatalf("dims=%d: perm not degree-ordered", dims)
			}
			prevDeg = deg
		}
	}
	// DC coefficient first.
	if perms[2][0] != 0 || perms[3][0] != 0 {
		t.Fatal("DC coefficient must come first")
	}
}

func TestNegabinaryRoundTrip(t *testing.T) {
	vals := []int64{0, 1, -1, 2, -2, 1 << 40, -(1 << 40), math.MaxInt64 / 4, -math.MaxInt64 / 4}
	for _, v := range vals {
		if got := invNegabinary(negabinary(v)); got != v {
			t.Fatalf("negabinary(%d) round trip = %d", v, got)
		}
	}
	f := func(v int64) bool { return invNegabinary(negabinary(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNegabinaryMagnitudeOrdering(t *testing.T) {
	// Small-magnitude values must map to codes with fewer significant bits,
	// which is what makes MSB-first plane coding effective.
	if negabinary(0) != 0 {
		t.Fatal("negabinary(0) must be 0")
	}
	small := bits.Len64(negabinary(3))
	large := bits.Len64(negabinary(1 << 30))
	if small >= large {
		t.Fatalf("bit length not monotone: %d vs %d", small, large)
	}
}

// encodeInts/decodeInts match the oracle's bytes, are lossless at full
// precision and keep exactly the top maxprec planes below it. The words
// include bit 63, which negabinary codes set and which lands in the top
// lane of the transpose.
func TestIntsCoderLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, dims := range []int{1, 2, 3} {
		size := 1 << (2 * uint(dims))
		for trial := 0; trial < 60; trial++ {
			u := make([]uint64, size)
			for i := range u {
				// Mix of magnitudes, including zeros, full words and single bits.
				switch rng.Intn(7) {
				case 0:
					u[i] = 0
				case 1:
					u[i] = uint64(rng.Intn(16))
				case 2:
					u[i] = rng.Uint64() >> 33
				case 3:
					u[i] = rng.Uint64()
				case 4:
					u[i] = ^uint64(0)
				case 5:
					u[i] = 1 << 63
				default:
					u[i] = 1 << uint(rng.Intn(64))
				}
			}
			for _, maxprec := range []int{intprec, 63, 40, 9, 1, 0} {
				checkIntsCoder(t, dims, maxprec, u)
			}
		}
	}
}

func TestLiftTransformApproxInverse(t *testing.T) {
	// The lifting transform discards a few low-order bits; for values far
	// above the LSB the inverse must reproduce the input to tiny relative
	// error.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		for _, dims := range []int{1, 2, 3} {
			size := 1 << (2 * uint(dims))
			blk := make([]int64, size)
			orig := make([]int64, size)
			for i := range blk {
				blk[i] = int64(rng.Uint64()>>4) - (1 << 59)
				orig[i] = blk[i]
			}
			fwdXform(blk, dims)
			invXform(blk, dims)
			for i := range blk {
				diff := blk[i] - orig[i]
				if diff < 0 {
					diff = -diff
				}
				// Allowed slack: a handful of LSBs per lifting pass.
				if diff > 64 {
					t.Fatalf("dims=%d coeff=%d: drift %d", dims, i, diff)
				}
			}
		}
	}
}

func smooth2D(ny, nx int) []float64 {
	data := make([]float64, ny*nx)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			data[j*nx+i] = math.Sin(float64(i)/9)*math.Cos(float64(j)/7) + 0.1*float64(i+j)
		}
	}
	return data
}

func TestRoundTrip1D(t *testing.T) {
	c := New()
	n := 10000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i) / 40)
	}
	for _, eb := range []float64{1e-1, 1e-3, 1e-6, 1e-9} {
		buf, err := c.Compress(data, []int{n}, compress.AbsBound(eb))
		if err != nil {
			t.Fatalf("eb=%g: %v", eb, err)
		}
		got, err := c.Decompress(buf)
		if err != nil {
			t.Fatalf("eb=%g: %v", eb, err)
		}
		if len(got) != n {
			t.Fatalf("eb=%g: %d values", eb, len(got))
		}
		if e := maxErr(data, got); e > eb {
			t.Fatalf("eb=%g: max error %g exceeds bound", eb, e)
		}
	}
}

func TestRoundTrip2D(t *testing.T) {
	c := New()
	data := smooth2D(63, 65) // deliberately not multiples of 4
	eb := 1e-4
	buf, err := c.Compress(data, []int{63, 65}, compress.AbsBound(eb))
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

func TestRoundTrip3D(t *testing.T) {
	c := New()
	nz, ny, nx := 9, 13, 17
	data := make([]float64, nz*ny*nx)
	idx := 0
	for k := 0; k < nz; k++ {
		for j := 0; j < ny; j++ {
			for i := 0; i < nx; i++ {
				data[idx] = math.Exp(-float64((i-8)*(i-8)+(j-6)*(j-6)+(k-4)*(k-4)) / 40)
				idx++
			}
		}
	}
	eb := 1e-5
	buf, err := c.Compress(data, []int{nz, ny, nx}, compress.AbsBound(eb))
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

func TestSmoothCompressesWell(t *testing.T) {
	c := New()
	data := smooth2D(256, 256)
	buf, err := c.Compress(data, []int{256, 256}, compress.RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	if r := compress.Ratio(len(data), buf); r < 6 {
		t.Fatalf("smooth 2-D ratio %.2f, want >= 6", r)
	}
}

func TestZeroBlocksAreCheap(t *testing.T) {
	c := New()
	data := make([]float64, 100000) // all zeros
	buf, err := c.Compress(data, []int{len(data)}, compress.AbsBound(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	// One bit per 4-value block plus header.
	if len(buf) > len(data)/4/8+64 {
		t.Fatalf("zero data took %d bytes", len(buf))
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("value %d = %v", i, v)
		}
	}
}

func TestHugeToleranceZeroesData(t *testing.T) {
	c := New()
	data := []float64{1e-6, -1e-6, 2e-6, 0}
	buf, err := c.Compress(data, []int{4}, compress.AbsBound(1.0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Decompress(buf)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(data, got); e > 1.0 {
		t.Fatalf("error %g", e)
	}
}

func TestRandomDataBounded(t *testing.T) {
	c := New()
	rng := rand.New(rand.NewSource(17))
	data := make([]float64, 8192)
	for i := range data {
		data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3))
	}
	for _, eb := range []float64{1e-2, 1e-5, 1e-8} {
		buf, err := c.Compress(data, []int{len(data)}, compress.AbsBound(eb))
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

func TestMixedMagnitudeBlocks(t *testing.T) {
	// Exercise per-block exponents: alternating tiny and huge regions.
	c := New()
	data := make([]float64, 4096)
	for i := range data {
		if (i/4)%2 == 0 {
			data[i] = 1e-12 * float64(i%17)
		} else {
			data[i] = 1e12 * math.Sin(float64(i)/5)
		}
	}
	eb := 1e-3
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
	if _, err := c.Compress([]float64{1}, []int{2}, compress.AbsBound(1e-3)); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	if _, err := c.Compress([]float64{math.Inf(1)}, []int{1}, compress.AbsBound(1e-3)); err == nil {
		t.Fatal("Inf accepted")
	}
	if _, err := c.Compress([]float64{1}, []int{1}, compress.AbsBound(0)); err == nil {
		t.Fatal("zero bound accepted")
	}
}

func TestCorruptPayload(t *testing.T) {
	c := New()
	if _, err := c.Decompress(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, err := c.Decompress([]byte{0x01, 0x02}); err == nil {
		t.Fatal("garbage accepted")
	}
	data := smooth2D(16, 16)
	buf, err := c.Compress(data, []int{16, 16}, compress.AbsBound(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decompress(buf[:len(buf)/4]); err == nil {
		t.Fatal("truncated accepted")
	}
}

func TestRegistry(t *testing.T) {
	c, err := compress.Get("zfp")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "zfp" {
		t.Fatalf("name %q", c.Name())
	}
}

// property: the bound holds for arbitrary random-walk inputs across bounds
// and shapes.
func TestBoundQuick(t *testing.T) {
	c := New()
	f := func(seed int64, size uint16, ebExp uint8, rank uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(size%2000) + 1
		var dims []int
		switch rank % 3 {
		case 0:
			dims = []int{n}
		case 1:
			ny := max(int(math.Sqrt(float64(n))), 1)
			dims = []int{ny, (n + ny - 1) / ny}
		default:
			// No extent is a multiple of 4: every axis ends in a partial tile.
			e := int(math.Cbrt(float64(n))) / 4 * 4
			dims = []int{e + 1, e + 2, e + 3}
		}
		n = 1
		for _, d := range dims {
			n *= d
		}
		data := make([]float64, n)
		v := 0.0
		for i := range data {
			v += rng.NormFloat64()
			data[i] = v
		}
		eb := math.Pow(10, -float64(ebExp%8))
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
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// digestInput is a deterministic field over shape dims: a sum of one wave
// per axis, or uniform noise in [-4, 4). Neither involves a fused
// multiply-add, so the values are the same on every platform.
func digestInput(dims []int, smooth bool) []float64 {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := make([]float64, n)
	rng := rand.New(rand.NewSource(int64(n)))
	for i := range data {
		if !smooth {
			data[i] = (rng.Float64() - 0.5) * 8
			continue
		}
		for a, rest := len(dims)-1, i; a >= 0; a-- {
			data[i] += math.Sin(float64(rest%dims[a]) / float64(3+2*a))
			rest /= dims[a]
		}
	}
	return data
}

func digestKey(dims []int, smooth bool, eb float64) string {
	kind := "random"
	if smooth {
		kind = "smooth"
	}
	return fmt.Sprintf("%v/%s/%g", dims, kind, eb)
}

// compressDigests are the SHA-256 sums of Compress output for shapes no
// golden reaches: a 1-D stream shorter than two tiles and 2-D/3-D arrays
// whose extents are not multiples of 4, so partial tiles replicate their
// edges. They were computed by the codec that had one gather/scatter pair
// per rank, before the tile walker replaced them.
var compressDigests = map[string]string{
	"[5]/smooth/0.1":         "510e7e4d4e1bbb09e7724c6f04ff30b8a84193a4eccfaf0ccd3575dc22e2431e",
	"[5]/smooth/1e-06":       "0ef205f040ac4cf4fc1cae431372668c32f6329690cfcaef075ac8ece2452b67",
	"[5]/random/0.1":         "04ef7b6b3143decccd7a52c66a15ef4251844fb81ea0859daf7292ce4b4acfe2",
	"[5]/random/1e-06":       "d18eb0591887af3ca60192b68b8bd1a479c41fe0896deeb86b1116ba8e043438",
	"[7 9]/smooth/0.1":       "1619729e27a6d26f04ceaf4fc1e5bfb50cc96cfdad43ec7a8e71b5482ad920a6",
	"[7 9]/smooth/1e-06":     "6f0732b6f3d14b177c8e1d146fc315a79a725066c24faaa113be235211608944",
	"[7 9]/random/0.1":       "3a00d1894d860cff1f513bf5f28c1c99025c911471624c51085fc5a8c2a16658",
	"[7 9]/random/1e-06":     "61f2f34471d73547584fe89f4550d9a3d80af7c24d966859aecfc27c38716107",
	"[63 65]/smooth/0.1":     "bd6b9571f71bb5134d56f23f3e4527e1eb88b1643dff501909edb7d25bcbef22",
	"[63 65]/smooth/1e-06":   "2bbc81c9232d4120781f360bec49b9abd5bbef39a8841787aefc81912913602d",
	"[63 65]/random/0.1":     "90c32bc96d97825d9ca85636c4deb211eec0f59652d4a6dc84af0bf339d1c38e",
	"[63 65]/random/1e-06":   "3115ea92be1b56ac61456945cd581a2ce62ba5b31cfb439358bc7d12e1829e29",
	"[3 5 7]/smooth/0.1":     "2e5c49f4a9487097fdc565d47a193b7dd489ff464877c5f8bd26cb415b3e3c43",
	"[3 5 7]/smooth/1e-06":   "62b190196027e501d05fae3ee1ce5adbda70eaa873a592230699ca2d7af0677f",
	"[3 5 7]/random/0.1":     "ed223014892351f92b57b858c3c01756bb00087836008bce8e68c0752f66c954",
	"[3 5 7]/random/1e-06":   "ccc73d0fb52be379ede612e288451536c786ab642d8f7738a4d382898f608b33",
	"[9 13 17]/smooth/0.1":   "c04ce57f04e6daffd9b944ee51a2dc08578c45eb4b7f243ca0a097c75019645d",
	"[9 13 17]/smooth/1e-06": "17651c49b34273975877fcd7b8f68167b144e2be1bc8be23962dee5b9aee64ef",
	"[9 13 17]/random/0.1":   "9458cc1c95c171e5a5637d0e84203c527bae5656e83fd8a00ff78fd4c9564509",
	"[9 13 17]/random/1e-06": "e83ce157c5c66631032d97638c904685f21fb4b5303b446687abb5cb9f4b1745",
}

func TestCompressDigests(t *testing.T) {
	for _, dims := range [][]int{{5}, {7, 9}, {63, 65}, {3, 5, 7}, {9, 13, 17}} {
		for _, smooth := range []bool{true, false} {
			for _, eb := range []float64{1e-1, 1e-6} {
				data := digestInput(dims, smooth)
				buf, err := New().Compress(data, dims, compress.AbsBound(eb))
				if err != nil {
					t.Fatal(err)
				}
				key := digestKey(dims, smooth, eb)
				if got := fmt.Sprintf("%x", sha256.Sum256(buf)); got != compressDigests[key] {
					t.Errorf("%s: digest %s, want %s", key, got, compressDigests[key])
				}
				back, err := New().Decompress(buf)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if e := maxErr(data, back); e > eb {
					t.Errorf("%s: max error %g exceeds the bound", key, e)
				}
			}
		}
	}
}

// A call allocates its output and a few fixed-size values, never per tile:
// the block scratch lives on the stack and the bits are appended straight
// to the header. Allocating two slices per tile cost 32 773 allocations to
// compress the 512x512 benchmark field and 32 770 to decompress it.
func TestAllocsPerCall(t *testing.T) {
	box := sinBox()
	for _, in := range []struct {
		data []float64
		dims []int
	}{{smooth2D(512, 512), []int{512, 512}}, {box, []int{32, 32, 32}}} {
		buf, err := New().Compress(in.data, in.dims, compress.RelBound(1e-4))
		if err != nil {
			t.Fatal(err)
		}
		calls := []struct {
			name string
			f    func()
		}{
			{"Compress", func() { New().Compress(in.data, in.dims, compress.RelBound(1e-4)) }},
			{"Decompress", func() { New().Decompress(buf) }},
		}
		for _, c := range calls {
			if a := testing.AllocsPerRun(3, c.f); a > 8 {
				t.Errorf("%s of dims %v: %.0f allocations per call, want <= 8", c.name, in.dims, a)
			}
		}
	}
}

// sinBox is the 32x32x32 field of TestAllocsPerCall and the 3-D benchmarks.
func sinBox() []float64 {
	box := make([]float64, 32*32*32)
	for i := range box {
		box[i] = math.Sin(float64(i) / 50)
	}
	return box
}

// benchmarkCodec times Compress, or Decompress of its output, on one field
// at rel 1e-4, in MB/s of input values.
func benchmarkCodec(b *testing.B, data []float64, dims []int, decompress bool) {
	c := New()
	buf, err := c.Compress(data, dims, compress.RelBound(1e-4))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if decompress {
			_, err = c.Decompress(buf)
		} else {
			_, err = c.Compress(data, dims, compress.RelBound(1e-4))
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// The 1-D field is an 850 000-value stream, the shape zmesh-ordered zfp
// codes: 4-value tiles, the cheapest transpose.
func BenchmarkCompress1D(b *testing.B) {
	benchmarkCodec(b, smooth2D(1000, 850), []int{850000}, false)
}

func BenchmarkDecompress1D(b *testing.B) {
	benchmarkCodec(b, smooth2D(1000, 850), []int{850000}, true)
}

func BenchmarkCompress2D(b *testing.B) {
	benchmarkCodec(b, smooth2D(512, 512), []int{512, 512}, false)
}

func BenchmarkDecompress2D(b *testing.B) {
	benchmarkCodec(b, smooth2D(512, 512), []int{512, 512}, true)
}

func BenchmarkCompress3D(b *testing.B) {
	benchmarkCodec(b, sinBox(), []int{32, 32, 32}, false)
}

func BenchmarkDecompress3D(b *testing.B) {
	benchmarkCodec(b, sinBox(), []int{32, 32, 32}, true)
}
