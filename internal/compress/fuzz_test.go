package compress_test

// Corruption-robustness tests: decompressors must never panic or allocate
// unboundedly on mutated payloads — they either return an error or (for
// mutations that keep the framing valid) some decoded data. These tests
// mutate real payloads with random bit flips, truncations and extensions.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
	"repro/internal/compress/lossless"
	"repro/internal/compress/sz"
	"repro/internal/compress/zfp"
)

func codecs() []compress.Compressor {
	return []compress.Compressor{sz.New(), zfp.New(), lossless.New()}
}

func signal(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Sin(float64(i)/13) + 0.2*math.Cos(float64(i)/3)
	}
	return out
}

// decodeSafely runs Decompress and converts panics into test failures with
// the mutation context attached.
func decodeSafely(t *testing.T, c compress.Compressor, buf []byte, ctx string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: %s: Decompress panicked: %v", c.Name(), ctx, r)
		}
	}()
	out, err := c.Decompress(buf)
	if err == nil && len(out) > 1<<24 {
		t.Fatalf("%s: %s: suspiciously large decode (%d values)", c.Name(), ctx, len(out))
	}
}

func TestBitFlipRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	data := signal(4096)
	for _, c := range codecs() {
		buf, err := c.Compress(data, []int{len(data)}, compress.RelBound(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			mut := append([]byte(nil), buf...)
			flips := rng.Intn(8) + 1
			for f := 0; f < flips; f++ {
				pos := rng.Intn(len(mut))
				mut[pos] ^= 1 << uint(rng.Intn(8))
			}
			decodeSafely(t, c, mut, "bit flips")
		}
	}
}

func TestTruncationRobustness(t *testing.T) {
	data := signal(4096)
	for _, c := range codecs() {
		buf, err := c.Compress(data, []int{len(data)}, compress.RelBound(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= len(buf); cut += 1 + len(buf)/97 {
			decodeSafely(t, c, buf[:cut], "truncation")
		}
	}
}

func TestExtensionRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	data := signal(1024)
	for _, c := range codecs() {
		buf, err := c.Compress(data, []int{len(data)}, compress.RelBound(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			extra := make([]byte, rng.Intn(64)+1)
			rng.Read(extra)
			decodeSafely(t, c, append(append([]byte(nil), buf...), extra...), "extension")
		}
	}
}

func TestRandomGarbageRobustness(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, c := range codecs() {
		for trial := 0; trial < 200; trial++ {
			garbage := make([]byte, rng.Intn(512))
			rng.Read(garbage)
			decodeSafely(t, c, garbage, "garbage")
		}
	}
}

// Headers claiming absurd sizes must be rejected, not allocated.
func TestHugeDimsRejected(t *testing.T) {
	if _, err := compress.CheckSize([]int{1 << 30, 1 << 30, 1 << 30}); err == nil {
		t.Fatal("absurd dims accepted")
	}
	if n, err := compress.CheckSize([]int{1024, 1024}); err != nil || n != 1<<20 {
		t.Fatalf("sane dims rejected: %v %v", n, err)
	}
	if _, err := compress.CheckSize([]int{0}); err == nil {
		t.Fatal("zero dim accepted")
	}
}
