package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; xs need not be sorted. Empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// summary is how every timing is reported: sample count, median, quartiles.
type summary struct {
	N           int
	Q1, Med, Q3 float64
}

func summarize(xs []float64) summary {
	return summary{N: len(xs), Q1: percentile(xs, 0.25), Med: median(xs), Q3: percentile(xs, 0.75)}
}

// samples collects durations in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// concat joins sample groups into one slice.
func concat(groups []samples) []float64 {
	var all []float64
	for _, g := range groups {
		all = append(all, g...)
	}
	return all
}

// timeFor calls fn repeatedly for about d (at least three times) and returns
// the duration of each call in milliseconds.
func timeFor(d time.Duration, fn func()) []float64 {
	var out samples
	for deadline := time.Now().Add(d); len(out) < 3 || time.Now().Before(deadline); {
		t0 := time.Now()
		fn()
		out.add(time.Since(t0))
	}
	return out
}

// span is one traced interval. Parent is the index of the enclosing span
// (-1 for a root); spans of one operation share Op.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out when the run ends. A nil
// tracer records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// op allocates an operation identifier.
func (t *tracer) op() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// start opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) start(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNs: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNs = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its direct children cover.
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.Name] += s.EndNs - s.StartNs - covered[i]
	}
	return self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
