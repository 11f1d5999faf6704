package multilevel

import (
	"crypto/sha256"
	"fmt"
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

// oneTier encodes data as a single tier at bound b and decodes it back.
func oneTier(t testing.TB, data []float64, b compress.Bound) (payload []byte, back []float64) {
	t.Helper()
	tiers, err := New().CompressProgressive(data, []int{len(data)}, b.Mode, []float64{b.Value})
	if err != nil {
		t.Fatal(err)
	}
	back, err = New().DecompressProgressive(tiers)
	if err != nil {
		t.Fatal(err)
	}
	return tiers[0].Payload, back
}

func TestDecomposeRecomposeIdentity(t *testing.T) {
	// Without quantization the transform must be exactly invertible.
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 17, 64, 65, 1001} {
		data := make([]float64, n)
		for i := range data {
			data[i] = rng.NormFloat64()
		}
		work := append([]float64(nil), data...)
		decompose(work)
		recompose(work)
		for i := range data {
			if math.Abs(work[i]-data[i]) > 1e-12*(1+math.Abs(data[i])) {
				t.Fatalf("n %d: cell %d drifted %v -> %v", n, i, data[i], work[i])
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
	decompose(work)
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
	n := 10000
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i)/50) + 0.1*math.Cos(float64(i)/7)
	}
	for _, eb := range []float64{1e-2, 1e-4, 1e-6} {
		if _, got := oneTier(t, data, compress.AbsBound(eb)); maxErr(data, got) > eb {
			t.Fatalf("eb=%g: max error %g", eb, maxErr(data, got))
		}
	}
}

func TestSmoothBeatsGzipFloor(t *testing.T) {
	n := 65536
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i) / 100)
	}
	buf, _ := oneTier(t, data, compress.RelBound(1e-4))
	if r := compress.Ratio(n, buf); r < 10 {
		t.Fatalf("tier ratio %.2f on smooth data, want >= 10", r)
	}
}

func TestRandomDataBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	data := make([]float64, 5000)
	for i := range data {
		data[i] = rng.NormFloat64() * 50
	}
	eb := 0.25
	if _, got := oneTier(t, data, compress.AbsBound(eb)); maxErr(data, got) > eb {
		t.Fatalf("max error %g", maxErr(data, got))
	}
}

func TestInvalidInputs(t *testing.T) {
	c := New()
	if _, err := c.CompressProgressive([]float64{1, 2}, []int{3}, compress.Abs, []float64{1e-3}); err == nil {
		t.Fatal("dims mismatch accepted")
	}
	if _, err := c.CompressProgressive([]float64{1}, []int{1}, compress.Abs, []float64{0}); err == nil {
		t.Fatal("zero bound accepted")
	}
	if _, err := c.CompressProgressive([]float64{1, math.NaN()}, []int{2}, compress.Abs, []float64{1}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestCorrupt(t *testing.T) {
	c := New()
	if _, err := c.DecompressProgressive([]Tier{{Bound: 1}}); err == nil {
		t.Fatal("empty payload accepted")
	}
	buf, _ := oneTier(t, []float64{1, 2, 3, 4, 5, 6, 7, 8}, compress.AbsBound(1e-3))
	if _, err := c.DecompressProgressive([]Tier{{Bound: 1e-3, Payload: buf[:len(buf)/2]}}); err == nil {
		t.Fatal("truncated accepted")
	}
}

// No version 1 decoder is kept: see sz.TestVersion1Rejected.
func TestVersion1Rejected(t *testing.T) {
	c := New()
	data := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	tiers, err := c.CompressProgressive(data, []int{8}, compress.Abs, []float64{1e-1, 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	const versionAt = 1 + 5 // marker, then the magic as a 5-byte uvarint
	p := tiers[0].Payload
	if p[0] != 0 || p[versionAt] != version {
		t.Fatalf("payload starts % x: expected a raw body with the version at byte %d", p[:versionAt+1], versionAt)
	}
	p[versionAt] = 1
	if _, err := c.DecompressProgressive(tiers); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("version 1 tier: %v, want unsupported version", err)
	}
}

// property: every tier prefix holds its bound across random walks, lengths
// and bounds.
func TestBoundQuick(t *testing.T) {
	c := New()
	f := func(seed int64, size uint16, ebExp uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		data := make([]float64, int(size%2000)+1)
		v := 0.0
		for i := range data {
			v += rng.NormFloat64()
			data[i] = v
		}
		eb := math.Pow(10, -float64(ebExp%6)-1)
		bounds := []float64{10 * eb, eb}
		tiers, err := c.CompressProgressive(data, []int{len(data)}, compress.Abs, bounds)
		if err != nil {
			return false
		}
		for k := 1; k <= len(tiers); k++ {
			got, err := c.DecompressProgressive(tiers[:k])
			if err != nil || len(got) != len(data) || maxErr(data, got) > bounds[k-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// tierDigestInputs are the streams TestTierDigests pins: a single value, a
// smooth wave of odd length (so the last node takes the boundary
// predictor), a plateau then a step, and a constant (whose Rel bound falls
// back to the bound value).
func tierDigestInputs() map[string][]float64 {
	wave := make([]float64, 1001)
	for i := range wave {
		wave[i] = math.Sin(float64(i)/37) + 0.25*math.Cos(float64(i)/5)
	}
	step := make([]float64, 600)
	for i := range step {
		step[i] = 2.5
		if i >= 400 {
			step[i] = -1
		}
	}
	constant := make([]float64, 257)
	for i := range constant {
		constant[i] = 7
	}
	return map[string][]float64{"one": {3.25}, "wave": wave, "step": step, "constant": constant}
}

// tierDigests are the SHA-256 sums of every tier payload of
// tierDigestInputs at Rel 1e-2, 1e-4, 1e-6. They were computed by the
// encoder that walked N-D line geometry, before the 1-D rewrite.
var tierDigests = map[string]string{
	"one/0":      "4ced4adcac1812efcd34290fe2dedc9a7cf6799cf9f839e5be96d3f6dc19dacc",
	"one/1":      "79c36bcd6ab651509a7905daed0fcd48953b758cbe5a021068d410e24d8cb9b9",
	"one/2":      "3f1cbbb1b836a656adc9929233cced3385622c882ed55912b67b0a0106caeaa3",
	"wave/0":     "4b1e4153ad3d44398646f86d93c595e236e23c398e69d42f7dc2bd9e5f4a315b",
	"wave/1":     "b42104771ec1b20e84ca243671bdb5c310c2d7de36b28d3e0590ef2400c4e643",
	"wave/2":     "bcbb43b74dbbc1658f6e13bb8b0fde07044da44eaeed8c2e229e800b2944a6c0",
	"step/0":     "0ce9b9e9f6428032e4cebaa123343c6bd6f3879850a5de0a19bbe8c9551f5d2a",
	"step/1":     "bd687284945b332e289e32895f834ec917a8bcf900fe2206645093522a48e22f",
	"step/2":     "62cf6971ff107788adb154de73c63f5809e34198f346d4f411a5b252e9308d05",
	"constant/0": "0aba9baff80ca44bb92e53be2329b1bc06c8f0f7aa22d277b6bf4b049b694e06",
	"constant/1": "013f3e840d67d248f93795db6f8eeaba9d802d6c7740708a5d3c018994a645af",
	"constant/2": "62c9554686b4755191fc250e07c198707ebe6d99848f34682e8cdf37f26c893d",
}

func TestTierDigests(t *testing.T) {
	bounds := []float64{1e-2, 1e-4, 1e-6}
	for name, data := range tierDigestInputs() {
		tiers, err := New().CompressProgressive(data, []int{len(data)}, compress.Rel, bounds)
		if err != nil {
			t.Fatal(err)
		}
		for k, tier := range tiers {
			key := fmt.Sprintf("%s/%d", name, k)
			if got := fmt.Sprintf("%x", sha256.Sum256(tier.Payload)); got != tierDigests[key] {
				t.Errorf("%s: digest %s, want %s", key, got, tierDigests[key])
			}
			back, err := New().DecompressProgressive(tiers[:k+1])
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if e := maxErr(data, back); e > tier.Bound {
				t.Errorf("%s: max error %g exceeds %g", key, e, tier.Bound)
			}
		}
	}
}

func BenchmarkCompressProgressive(b *testing.B) {
	c := New()
	n := 1 << 18
	data := make([]float64, n)
	for i := range data {
		data[i] = math.Sin(float64(i) / 40)
	}
	bounds := []float64{1e-2, 1e-3, 1e-4, 1e-5}
	b.SetBytes(int64(n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.CompressProgressive(data, []int{n}, compress.Rel, bounds); err != nil {
			b.Fatal(err)
		}
	}
}
