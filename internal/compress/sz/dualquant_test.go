package sz

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/frame"
)

// escapes returns the escaped-value count a payload's header declares.
func escapes(t *testing.T, payload []byte) int {
	t.Helper()
	r := frame.NewReader(rawForm(t, payload)[1:])
	for range 2 { // magic, version
		r.Uvarint()
	}
	if _, _, err := compress.ReadShape(&r); err != nil {
		t.Fatal(err)
	}
	for range 4 { // order, reserved, intervals, bound
		r.Uvarint()
	}
	n := r.Uvarint()
	if r.Bad() {
		t.Fatal("short header")
	}
	return int(n)
}

// edgeShapes are the ways a stream reaches the predictors: 1-D at either
// order, and the halo grid in 2-D and 3-D (where the order is always 1).
var edgeShapes = []struct {
	name  string
	dims  []int
	order int
}{
	{"1d/order1", []int{60}, 1},
	{"1d/order2", []int{60}, 2},
	{"2d", []int{6, 10}, 1},
	{"3d", []int{3, 4, 5}, 1},
}

// The edges pre-quantization creates, in every shape: a grid too fine for
// the values, values exactly between two grid points, flat and extreme
// fields, and a plateau after an escape, whose p both sides recompute from
// the stored value.
func TestDualQuantEdges(t *testing.T) {
	const n = 60
	eb := math.Ldexp(1, -10) // a binary bound: (k+½)·2eb is exact
	cases := []struct {
		name string
		eb   float64
		at   func(i int) float64
		// maxEscapes bounds the escaped values; -1 means all of them.
		maxEscapes int
	}{
		// |v / 2eb| ≈ 5e299 is past 2^52: every value escapes verbatim.
		{"bound 1e-300 near 1", 1e-300, func(i int) float64 { return 1 + float64(i)*1e-3 }, -1},
		{"half-grid points", eb, func(i int) float64 { return (float64(i%7-3) + 0.5) * 2 * eb }, 0},
		{"half-grid points, decimal bound", 1e-3, func(i int) float64 { return (float64(i%7-3) + 0.5) * 2e-3 }, n},
		{"constant", 1e-6, func(int) float64 { return 3.14159 }, 1},
		{"alternating ±range", 1e-3, func(i int) float64 { return float64(1-2*(i%2)) * 1e3 }, n},
		// Every cell whose Lorenzo stencil holds the spike escapes: 2^rank of
		// them, and the one after in 1-D order 2.
		{"single spike", 1e-3, func(i int) float64 {
			if i == n/2 {
				return 1e6
			}
			return 0
		}, 8},
		// The jump escapes (its residual is far past the radius); 12345.6789
		// is off the grid, so the plateau codes as zero residuals only if the
		// escaped cell's p is the one the encoder predicted from.
		{"escape then plateau", 1e-3, func(i int) float64 {
			if i < n/3 {
				return 0
			}
			return 12345.6789
		}, 4},
	}
	for _, shape := range edgeShapes {
		for _, tc := range cases {
			data := make([]float64, n)
			for i := range data {
				data[i] = tc.at(i)
			}
			buf, err := New().compress(data, shape.dims, compress.AbsBound(tc.eb), shape.order)
			if err != nil {
				t.Fatalf("%s/%s: %v", shape.name, tc.name, err)
			}
			got, err := New().Decompress(buf)
			if err != nil {
				t.Fatalf("%s/%s: %v", shape.name, tc.name, err)
			}
			if len(got) != n || maxErr(data, got) > tc.eb {
				t.Errorf("%s/%s: %d values, max error %g, bound %g", shape.name, tc.name, len(got), maxErr(data, got), tc.eb)
			}
			want := tc.maxEscapes
			if want < 0 {
				want = n
			}
			if e := escapes(t, buf); e > want || (tc.maxEscapes < 0 && e != n) {
				t.Errorf("%s/%s: %d escaped values, want <= %d", shape.name, tc.name, e, want)
			}
		}
	}
}

// A non-finite value is an error naming its index wherever it sits, as
// compress.Validate words it, though sz finds it only where it escapes.
func TestNonFiniteNamesIndex(t *testing.T) {
	for _, shape := range edgeShapes {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, at := range []int{0, 30, 59} {
				data := smoothSignal(60)
				data[at] = bad
				for _, bound := range []compress.Bound{compress.AbsBound(1e-3), compress.RelBound(1e-3)} {
					_, err := New().compress(data, shape.dims, bound, shape.order)
					want := compress.NonFinite(at).Error()
					if err == nil || err.Error() != want {
						t.Errorf("%s, %v at %d, %v: %v, want %q", shape.name, bad, at, bound, err, want)
					}
				}
			}
		}
	}
}

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

// compressDigests are the SHA-256 sums of version 3 Compress output for
// shapes the goldens do not reach: a 1-D stream of five values, and 2-D and
// 3-D arrays whose extents are odd, so every halo face is read.
var compressDigests = map[string]string{
	"[5]/smooth/0.1":         "260ead371b19fe8d7d1e088741ae8d2d0770121cd4bef8d05d1c31c1946d4d7e",
	"[5]/smooth/1e-06":       "57b892b0a5cc66bb82f700ed391d9ecc735b90985307381c5537f231c6aeb235",
	"[5]/random/0.1":         "5a9bf166c2bb8e514f82d2294988e4c1f09c5170ac6a7bd50398cec3847614ae",
	"[5]/random/1e-06":       "a24170d07d3db81375d61eb100b3849cf6072469e530fe3c25fcc052dc01e80b",
	"[7 9]/smooth/0.1":       "0858697c5698d7a3953ad52c20e92b08d1d57e8d4c82c536fc367be207d06221",
	"[7 9]/smooth/1e-06":     "e114efb2074788e937a17572c37ba257b127a307ab5b727167768eabdd19fe0e",
	"[7 9]/random/0.1":       "4f05c6b78ccb2a792396b210250b12da17604a755fc0a1d59d7649b204b4575c",
	"[7 9]/random/1e-06":     "1f5fee0a2d775b7a17a917e1cd8c9bb344c5942f984941d82186273eb73ed66b",
	"[3 5 7]/smooth/0.1":     "b151756b64bb427cb970867414b3037863154ee4c3d5d3f60c07d3358eca96b0",
	"[3 5 7]/smooth/1e-06":   "b34bec73c5ea4018b117728b6cf43e717b51f287248f07f89636f90bd2e43dcd",
	"[3 5 7]/random/0.1":     "fb27244d876438ae131d4b30fab2287c5661793458e425bf1e7e4426d375a247",
	"[3 5 7]/random/1e-06":   "d9a7b3987d56da82d54e267119ac1a96267d17de26f39f2bc68d74798ba437c8",
	"[9 13 17]/smooth/0.1":   "ae51a05576236903611bf53ef7c51f28d59fede618711ecf9ec3581de9811cbd",
	"[9 13 17]/smooth/1e-06": "c4486e3afeddac33d3663df7d91edf049b8dd60e076fce5aaf03f13a534706f3",
	"[9 13 17]/random/0.1":   "dd8127d191bd6b49d8255deb19632848de5c0183bd3158d92f09f032e03cc4f1",
	"[9 13 17]/random/1e-06": "fb61c83175c1fb0b89adc14e80191caec8d3a5d84e31adc074e4d9b5e1f49618",
}

func TestCompressDigests(t *testing.T) {
	var missing []string
	for _, dims := range [][]int{{5}, {7, 9}, {3, 5, 7}, {9, 13, 17}} {
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
					missing = append(missing, fmt.Sprintf("%q: %q,", key, got))
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
	if len(missing) > 0 {
		t.Log("\n" + strings.Join(missing, "\n"))
	}
}

// A call allocates its output and a few fixed-size values: the codes, the
// escapes and the halo grid of a 2-D or 3-D array come from the entropy
// stage's pool. The 1 M-value random walk has a body DEFLATE cannot shrink.
// The 1 M-value sine is the common smooth stream, whose body is deflated:
// decoding it adds compress/flate's own per-block table allocations, the
// same for every codec behind the entropy stage, so it has its own limit at
// the measured count. The collector is off while a call is counted: a 1 M
// output triggers collections that empty the pool at random, which would
// blur the count by more than the one allocation the limits catch.
func TestAllocsPerCall(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	walk := make([]float64, 1<<20)
	rng := rand.New(rand.NewSource(1))
	for i, v := 1, 0.0; i < len(walk); i++ {
		v += rng.NormFloat64()
		walk[i] = v
	}
	for _, in := range []struct {
		name       string
		data       []float64
		dims       []int
		deflated   byte // the entropy stage's marker: 1 for a deflated body
		maxC, maxD float64
	}{
		{"walk", walk, []int{len(walk)}, 0, 8, 8},
		{"sine", smooth(1 << 20), []int{1 << 20}, 1, 8, 16},
		{"box", smooth(4096), []int{16, 16, 16}, 0, 8, 8},
	} {
		bound := compress.RelBound(1e-4)
		buf, err := New().Compress(in.data, in.dims, bound)
		if err != nil {
			t.Fatal(err)
		}
		if buf[0] != in.deflated {
			t.Fatalf("%s: lossless marker %d, want %d", in.name, buf[0], in.deflated)
		}
		if a := allocsPerCall(func() { New().Compress(in.data, in.dims, bound) }); a > in.maxC {
			t.Errorf("Compress of %s: %.0f allocations per call, want <= %.0f", in.name, a, in.maxC)
		}
		if a := allocsPerCall(func() { New().Decompress(buf) }); a > in.maxD {
			t.Errorf("Decompress of %s: %.0f allocations per call, want <= %.0f", in.name, a, in.maxD)
		}
	}
}

// allocsPerCall is testing.AllocsPerRun(3, f) with the collector off.
func allocsPerCall(f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(3, f)
}
