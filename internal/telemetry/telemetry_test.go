package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// TestBucketBoundaries pins the log2 bucketing: each power-of-two edge must
// land in the bucket whose half-open range [2^(i-1), 2^i) contains it.
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1023, 10},
		{1024, 11},
		{1025, 11},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// The bucket bounds must tile: High(i) == Low(i+1) for interior buckets.
	for i := 1; i < 63; i++ {
		if BucketHigh(i) != BucketLow(i+1) {
			t.Errorf("bucket %d: high %d != next low %d", i, BucketHigh(i), BucketLow(i+1))
		}
		lo, hi := BucketLow(i), BucketHigh(i)
		if got := bucketIndex(lo); got != i {
			t.Errorf("low edge %d fell in bucket %d, want %d", lo, got, i)
		}
		if got := bucketIndex(hi - 1); got != i {
			t.Errorf("high edge %d fell in bucket %d, want %d", hi-1, got, i)
		}
		if got := bucketIndex(hi); got != i+1 {
			t.Errorf("exclusive high %d fell in bucket %d, want %d", hi, got, i+1)
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 100, -5} {
		h.Observe(v)
	}
	s := h.snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 101 {
		t.Fatalf("sum = %d, want 101", s.Sum)
	}
	if s.Min != -5 || s.Max != 100 {
		t.Fatalf("min/max = %d/%d, want -5/100", s.Min, s.Max)
	}
	if want := 101.0 / 5; s.Mean != want {
		t.Fatalf("mean = %g, want %g", s.Mean, want)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
		if b.Count <= 0 {
			t.Errorf("empty bucket %+v in snapshot", b)
		}
	}
	if total != 5 {
		t.Fatalf("bucket counts sum to %d, want 5", total)
	}
}

func TestQuantile(t *testing.T) {
	var h Histogram
	// 100 observations of 10 and 100 of 1000: the median straddles the two
	// bucket populations, p99 must sit in the upper bucket.
	for i := 0; i < 100; i++ {
		h.Observe(10)
		h.Observe(1000)
	}
	s := h.snapshot()
	if q := s.Quantile(0.25); q < 10 || q > 16 {
		t.Errorf("p25 = %g, want within the [10, 16) bucket", q)
	}
	if q := s.Quantile(0.99); q < 512 || q > 1001 {
		t.Errorf("p99 = %g, want within the [512, 1001) clamped bucket", q)
	}
	if q := s.Quantile(0); q < 10 {
		t.Errorf("p0 = %g, want >= observed min", q)
	}
	if q := s.Quantile(1); q > 1001 {
		t.Errorf("p100 = %g, want <= observed max+1", q)
	}
	var empty HistogramSnapshot
	if q := empty.Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g, want 0", q)
	}
}

func TestObserveMilli(t *testing.T) {
	var h Histogram
	h.ObserveMilli(3.7)   // 3700
	h.ObserveMilli(0.001) // 1
	s := h.snapshot()
	if s.Min != 1 || s.Max != 3700 {
		t.Fatalf("milli min/max = %d/%d, want 1/3700", s.Min, s.Max)
	}
}

func TestRegistrySharing(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x")
	c2 := r.Counter("x")
	if c1 != c2 {
		t.Fatal("same name resolved to distinct counters")
	}
	c1.Add(2)
	c2.Inc()
	if got := r.Counter("x").Load(); got != 3 {
		t.Fatalf("shared counter = %d, want 3", got)
	}
	// Separate namespaces: a histogram and timer under the same name are
	// distinct metrics.
	r.Histogram("x").Observe(1)
	r.Timer("x").Observe(time.Millisecond)
	s := r.Snapshot()
	if s.Counters["x"] != 3 || s.Histograms["x"].Count != 1 || s.Timers["x"].Count != 1 {
		t.Fatalf("namespace collision in snapshot: %+v", s)
	}
	if names := s.Names(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("names = %v, want [x]", names)
	}
}

// TestNilSafety asserts the uninstrumented-path contract: everything works
// on nil receivers and does nothing.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("a")
	h := r.Histogram("b")
	tm := r.Timer("c")
	if c != nil || h != nil || tm != nil {
		t.Fatal("nil registry returned non-nil metrics")
	}
	c.Add(1)
	c.Inc()
	if c.Load() != 0 {
		t.Fatal("nil counter loaded non-zero")
	}
	h.Observe(1)
	h.ObserveMilli(1)
	tm.Observe(time.Second)
	tm.Since(time.Now())
	ran := false
	tm.Time(func() { ran = true })
	if !ran {
		t.Fatal("nil timer did not run fn")
	}
	if tm.TotalNs() != 0 {
		t.Fatal("nil timer reports time")
	}
	s := r.Snapshot()
	if len(s.Counters)+len(s.Histograms)+len(s.Timers) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("frames").Add(7)
	r.Timer("stage").Observe(1500 * time.Nanosecond)
	r.Histogram("ratio_milli").ObserveMilli(4.2)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v\n%s", err, buf.String())
	}
	if s.Counters["frames"] != 7 {
		t.Fatalf("frames = %d, want 7", s.Counters["frames"])
	}
	if s.Timers["stage"].TotalNs != 1500 {
		t.Fatalf("stage total = %d, want 1500", s.Timers["stage"].TotalNs)
	}
	if s.Histograms["ratio_milli"].Max != 4200 {
		t.Fatalf("ratio max = %d, want 4200", s.Histograms["ratio_milli"].Max)
	}
}

// TestMetricAllocs pins the hot-path allocation contract: once a metric
// exists, observing it allocates nothing, and the nil (uninstrumented)
// variants allocate nothing either.
func TestMetricAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	tm := r.Timer("t")
	h.Observe(1) // warm the once-guarded min/max init
	if n := testing.AllocsPerRun(100, func() { c.Add(1) }); n != 0 {
		t.Errorf("Counter.Add allocates %v", n)
	}
	if n := testing.AllocsPerRun(100, func() { h.Observe(42) }); n != 0 {
		t.Errorf("Histogram.Observe allocates %v", n)
	}
	if n := testing.AllocsPerRun(100, func() { tm.Observe(time.Microsecond) }); n != 0 {
		t.Errorf("Timer.Observe allocates %v", n)
	}
	var nc *Counter
	var nh *Histogram
	var nt *Timer
	if n := testing.AllocsPerRun(100, func() {
		nc.Add(1)
		nh.Observe(1)
		nt.Observe(1)
	}); n != 0 {
		t.Errorf("nil metric ops allocate %v", n)
	}
	// Repeated lookups of an existing metric must not allocate (they are
	// not on the hot path, but Instrument-time resolution should stay cheap).
	if n := testing.AllocsPerRun(100, func() { r.Counter("c").Add(1) }); n != 0 {
		t.Errorf("Counter lookup allocates %v", n)
	}
}
