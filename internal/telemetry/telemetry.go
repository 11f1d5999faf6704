// Package telemetry is the zero-dependency metrics substrate of the zMesh
// pipeline: atomic counters, streaming histograms with fixed log-spaced
// buckets, and per-stage wall-time timers, collected in a Registry that can
// be snapshotted to JSON or published through expvar.
//
// Design constraints (see DESIGN.md "Telemetry"):
//
//   - Zero dependencies beyond the standard library, so every internal
//     package (core, compress, the public API) may import it freely.
//   - Concurrency-safe without locks on the hot path: all mutation is a
//     handful of atomic operations. Metric *lookup* takes a read lock, so
//     callers resolve their metrics once (at Instrument time) and hold the
//     pointers.
//   - Nil-tolerant: every method works on a nil Registry, Counter,
//     Histogram or Timer and does nothing. Uninstrumented code paths carry
//     nil metric pointers and pay only a pointer comparison — no
//     allocations, no atomics, no time.Now calls.
//
// Histograms bucket by order of magnitude: bucket i holds values v with
// bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Non-positive values land in
// bucket 0. The bucketing is branch-free and fixed at compile time, so
// Observe is a few atomic adds regardless of the value distribution.
package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically-increasing (or freely adjusted) atomic count.
// The zero value is ready to use. Methods on a nil *Counter are no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current count (0 for a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// numBuckets covers the full non-negative int64 range: bucket 0 for v <= 0,
// buckets 1..63 for bits.Len64(v) = 1..63, bucket 64 overflow.
const numBuckets = 65

// Histogram is a streaming histogram over int64 observations with fixed
// log2-spaced buckets plus exact count/sum/min/max. The zero value is ready
// to use. Methods on a nil *Histogram are no-ops. All methods are safe for
// concurrent use; a snapshot taken under concurrent writes is internally
// consistent per field but the fields may lag each other by in-flight
// observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid iff count > 0
	max     atomic.Int64 // valid iff count > 0
	once    sync.Once    // initializes min/max sentinels
	buckets [numBuckets]atomic.Int64
}

func (h *Histogram) init() {
	h.once.Do(func() {
		h.min.Store(math.MaxInt64)
		h.max.Store(math.MinInt64)
	})
}

// bucketIndex maps an observation to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketLow returns the inclusive lower bound of bucket i (0 for the
// underflow bucket).
func BucketLow(i int) int64 {
	if i <= 0 {
		return math.MinInt64
	}
	return 1 << (i - 1)
}

// BucketHigh returns the exclusive upper bound of bucket i.
func BucketHigh(i int) int64 {
	if i <= 0 {
		return 1
	}
	if i >= 64 {
		return math.MaxInt64
	}
	return 1 << i
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.init()
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// ObserveMilli records a float64 in fixed-point thousandths — the
// convention used for dimensionless quantities like compression ratios, so
// the log-spaced integer buckets resolve the [0.001, 1000] range.
func (h *Histogram) ObserveMilli(v float64) {
	if h == nil {
		return
	}
	h.Observe(int64(math.Round(v * 1000)))
}

// Timer accumulates wall-time durations as a nanosecond histogram. The zero
// value is ready to use; methods on a nil *Timer are no-ops.
type Timer struct {
	h Histogram
}

// Observe records one duration.
func (t *Timer) Observe(d time.Duration) {
	if t == nil {
		return
	}
	t.h.Observe(int64(d))
}

// Since records the duration elapsed since t0. It is the usual call-site
// idiom: t0 := time.Now(); ...work...; timer.Since(t0).
func (t *Timer) Since(t0 time.Time) {
	if t == nil {
		return
	}
	t.h.Observe(int64(time.Since(t0)))
}

// Time runs fn and records its duration.
func (t *Timer) Time(fn func()) {
	if t == nil {
		fn()
		return
	}
	t0 := time.Now()
	fn()
	t.h.Observe(int64(time.Since(t0)))
}

// TotalNs returns the accumulated nanoseconds (0 for a nil timer).
func (t *Timer) TotalNs() int64 {
	if t == nil {
		return 0
	}
	return t.h.sum.Load()
}

// Registry is a named collection of metrics. Metrics are created on first
// lookup and live for the registry's lifetime; lookups for the same name
// return the same metric, so concurrent producers share one instance.
// Counters, histograms and timers occupy separate namespaces.
//
// A nil *Registry is valid everywhere and returns nil metrics, which makes
// the uninstrumented path a pure nil-check.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	timers   map[string]*Timer
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		timers:   make(map[string]*Timer),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = new(Counter)
	r.counters[name] = c
	return c
}

// Histogram returns the named histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = new(Histogram)
	r.hists[name] = h
	return h
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	t, ok := r.timers[name]
	r.mu.RUnlock()
	if ok {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok = r.timers[name]; ok {
		return t
	}
	t = new(Timer)
	r.timers[name] = t
	return t
}

// Bucket is one non-empty histogram bucket in a snapshot. Lo is inclusive,
// Hi exclusive.
type Bucket struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Mean    float64  `json:"mean"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (0 <= q <= 1) from the bucket counts by
// linear interpolation within the containing bucket, clamped to the
// observed min/max. It returns 0 for an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var seen float64
	for _, b := range s.Buckets {
		if seen+float64(b.Count) >= rank {
			lo, hi := float64(b.Lo), float64(b.Hi)
			if lo < float64(s.Min) {
				lo = float64(s.Min)
			}
			if hi > float64(s.Max)+1 {
				hi = float64(s.Max) + 1
			}
			if hi <= lo {
				return lo
			}
			frac := (rank - seen) / float64(b.Count)
			return lo + frac*(hi-lo)
		}
		seen += float64(b.Count)
	}
	return float64(s.Max)
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			lo := BucketLow(i)
			if s.Count > 0 && lo < s.Min {
				lo = s.Min
			}
			s.Buckets = append(s.Buckets, Bucket{Lo: lo, Hi: BucketHigh(i), Count: n})
		}
	}
	return s
}

// TimerSnapshot is a point-in-time copy of a timer (all values in
// nanoseconds).
type TimerSnapshot struct {
	Count   int64    `json:"count"`
	TotalNs int64    `json:"total_ns"`
	MinNs   int64    `json:"min_ns"`
	MaxNs   int64    `json:"max_ns"`
	MeanNs  float64  `json:"mean_ns"`
	P50Ns   float64  `json:"p50_ns"`
	P99Ns   float64  `json:"p99_ns"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot is a point-in-time copy of a whole registry, suitable for JSON
// serialization (this is also what the expvar integration publishes).
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Timers     map[string]TimerSnapshot     `json:"timers,omitempty"`
}

// Snapshot copies the registry's current state. Safe to call while
// producers are writing; the result is a consistent-enough view for
// reporting (each metric is read atomically, metrics may lag each other).
// A nil registry yields a zero Snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.snapshot()
		}
	}
	if len(r.timers) > 0 {
		s.Timers = make(map[string]TimerSnapshot, len(r.timers))
		for name, t := range r.timers {
			hs := t.h.snapshot()
			s.Timers[name] = TimerSnapshot{
				Count:   hs.Count,
				TotalNs: hs.Sum,
				MinNs:   hs.Min,
				MaxNs:   hs.Max,
				MeanNs:  hs.Mean,
				P50Ns:   hs.Quantile(0.5),
				P99Ns:   hs.Quantile(0.99),
				Buckets: hs.Buckets,
			}
		}
	}
	return s
}

// WriteJSON writes the registry snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// Names returns the sorted union of metric names, for stable iteration in
// reports and tests.
func (s Snapshot) Names() []string {
	seen := make(map[string]bool)
	for n := range s.Counters {
		seen[n] = true
	}
	for n := range s.Histograms {
		seen[n] = true
	}
	for n := range s.Timers {
		seen[n] = true
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
