package multilevel

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/compress"
)

func progressiveSignal(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / float64(n)
		out[i] = math.Sin(2*math.Pi*3*t) + 0.2*math.Sin(2*math.Pi*31*t) + 0.3*t
	}
	return out
}

func TestProgressiveBoundsPerPrefix(t *testing.T) {
	c := New()
	data := progressiveSignal(20000)
	bounds := []float64{1e-2, 1e-3, 1e-4, 1e-5}
	tiers, err := c.CompressProgressive(data, []int{len(data)}, compress.Abs, bounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != len(bounds) {
		t.Fatalf("%d tiers", len(tiers))
	}
	for k := 1; k <= len(tiers); k++ {
		got, err := c.DecompressProgressive(tiers[:k])
		if err != nil {
			t.Fatalf("prefix %d: %v", k, err)
		}
		if e := maxErr(data, got); e > bounds[k-1] {
			t.Fatalf("prefix %d: max error %g exceeds %g", k, e, bounds[k-1])
		}
	}
}

func TestProgressiveMonotoneImprovement(t *testing.T) {
	c := New()
	data := progressiveSignal(10000)
	bounds := []float64{1e-1, 1e-3, 1e-5}
	tiers, err := c.CompressProgressive(data, []int{len(data)}, compress.Abs, bounds)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for k := 1; k <= len(tiers); k++ {
		got, err := c.DecompressProgressive(tiers[:k])
		if err != nil {
			t.Fatal(err)
		}
		e := maxErr(data, got)
		if e > prev {
			t.Fatalf("prefix %d error %g worse than previous %g", k, e, prev)
		}
		prev = e
	}
}

func TestProgressiveCostVsOneShot(t *testing.T) {
	// All tiers together should not cost more than ~3x a one-shot encode
	// (a single tier) at the final bound: the progressive premium must be
	// bounded.
	c := New()
	data := progressiveSignal(50000)
	bounds := []float64{1e-2, 1e-4}
	tiers, err := c.CompressProgressive(data, []int{len(data)}, compress.Abs, bounds)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, tier := range tiers {
		total += len(tier.Payload)
	}
	oneShot, _ := oneTier(t, data, compress.AbsBound(bounds[len(bounds)-1]))
	if total > 3*len(oneShot) {
		t.Fatalf("progressive total %d bytes vs one-shot %d", total, len(oneShot))
	}
	// The first tier must be much smaller than the full encoding: that is
	// the point of progressive retrieval.
	if len(tiers[0].Payload) >= len(oneShot) {
		t.Fatalf("coarse tier %d bytes not smaller than one-shot %d", len(tiers[0].Payload), len(oneShot))
	}
}

// Tiers code the 1-D level-order stream of a field. The encoder refuses any
// other shape, and the decoder refuses a header that declares one.
func TestProgressive2D(t *testing.T) {
	c := New()
	data := progressiveSignal(48 * 64)
	if _, err := c.CompressProgressive(data, []int{48, 64}, compress.Rel, []float64{1e-2, 1e-4}); err == nil {
		t.Fatal("2-D dims accepted")
	}
	tiers, err := c.CompressProgressive(data[:64], []int{64}, compress.Rel, []float64{1e-2})
	if err != nil {
		t.Fatal(err)
	}
	// The raw body reads marker, magic (5 bytes), version, tier index, then
	// the rank; declare rank 2 with extents 8 × 8.
	p := tiers[0].Payload
	const rankAt = 1 + 5 + 1 + 1
	if p[0] != 0 || p[rankAt] != 1 || p[rankAt+1] != 64 {
		t.Fatalf("payload starts % x: expected a raw body with rank 1 at byte %d", p[:rankAt+2], rankAt)
	}
	forged := append(append(append([]byte(nil), p[:rankAt]...), 2, 8, 8), p[rankAt+2:]...)
	if _, err := c.DecompressProgressive([]Tier{{Bound: 1e-2, Payload: forged}}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("2-D tier header: %v, want ErrCorrupt", err)
	}
}

func TestProgressiveValidation(t *testing.T) {
	c := New()
	data := progressiveSignal(100)
	if _, err := c.CompressProgressive(data, []int{100}, compress.Abs, nil); err == nil {
		t.Fatal("no bounds accepted")
	}
	if _, err := c.CompressProgressive(data, []int{100}, compress.Abs, []float64{1e-3, 1e-2}); err == nil {
		t.Fatal("increasing bounds accepted")
	}
	if _, err := c.CompressProgressive(data, []int{100}, compress.Abs, []float64{0}); err == nil {
		t.Fatal("zero bound accepted")
	}
	if _, err := c.DecompressProgressive(nil); err == nil {
		t.Fatal("no tiers accepted")
	}
}

func TestProgressiveOutOfOrderTiersRejected(t *testing.T) {
	c := New()
	data := progressiveSignal(1000)
	tiers, err := c.CompressProgressive(data, []int{1000}, compress.Abs, []float64{1e-2, 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.DecompressProgressive([]Tier{tiers[1], tiers[0]}); err == nil {
		t.Fatal("out-of-order tiers accepted")
	}
}

func TestProgressiveCorruptTier(t *testing.T) {
	c := New()
	data := progressiveSignal(1000)
	tiers, err := c.CompressProgressive(data, []int{1000}, compress.Abs, []float64{1e-2})
	if err != nil {
		t.Fatal(err)
	}
	tiers[0].Payload = tiers[0].Payload[:len(tiers[0].Payload)/2]
	if _, err := c.DecompressProgressive(tiers); err == nil {
		t.Fatal("truncated tier accepted")
	}
}

func TestProgressiveRandomData(t *testing.T) {
	c := New()
	rng := rand.New(rand.NewSource(21))
	data := make([]float64, 4000)
	v := 0.0
	for i := range data {
		v += rng.NormFloat64()
		data[i] = v
	}
	bounds := []float64{1.0, 0.1, 0.01}
	tiers, err := c.CompressProgressive(data, []int{len(data)}, compress.Abs, bounds)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= len(tiers); k++ {
		got, err := c.DecompressProgressive(tiers[:k])
		if err != nil {
			t.Fatal(err)
		}
		if e := maxErr(data, got); e > bounds[k-1] {
			t.Fatalf("prefix %d: error %g exceeds %g", k, e, bounds[k-1])
		}
	}
}
