package main

import (
	"math"
	"regexp"
	"sort"
	"testing"

	zmesh "repro"
)

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.9, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of two = %v, want 1.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if s := summarize(xs); s != (summary{N: 5, Q1: 2, Med: 3, Q3: 4}) {
		t.Errorf("summarize = %+v", s)
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100] has children a [10,40] and b [50,70]; a has child c [20,30].
	spans := []span{
		{Name: "root", Op: 1, Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "a", Op: 1, Parent: 0, StartNs: 10, EndNs: 40},
		{Name: "b", Op: 1, Parent: 0, StartNs: 50, EndNs: 70},
		{Name: "c", Op: 1, Parent: 1, StartNs: 20, EndNs: 30},
		{Name: "a", Op: 2, Parent: -1, StartNs: 200, EndNs: 205},
	}
	self := selfTimes(spans)
	want := map[string]int64{"root": 50, "a": 20 + 5, "b": 20, "c": 10}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
	}
	var tr *tracer
	if id := tr.start("x", tr.op(), -1); id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
	tr.end(-1) // must not panic
}

// ratioOf compresses the dataset's first field with the default pipeline.
func ratioOf(t *testing.T, ds *dataset) float64 {
	t.Helper()
	enc, err := zmesh.NewEncoder(ds.mesh, zmesh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, err := enc.CompressValues(ds.names[0], ds.values[0], relBound)
	if err != nil {
		t.Fatal(err)
	}
	return c.Ratio()
}

func TestGeneratorDeterminism(t *testing.T) {
	build := func(seed int64) *dataset {
		ds, err := buildDataset(newBlast(seed), small2D, 2)
		if err != nil {
			t.Fatal(err)
		}
		return ds
	}
	a, b, other := build(7), build(7), build(8)
	if a.structureHash() != b.structureHash() || a.cells() != b.cells() || ratioOf(t, a) != ratioOf(t, b) {
		t.Error("the same seed gave different inputs")
	}
	if ratioOf(t, a) == ratioOf(t, other) {
		t.Error("different seeds gave the same field")
	}
	path, err := movingFront(newBlast(7), small2D, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, ds := range path {
		seen[ds.structureHash()] = true
	}
	if len(seen) != len(path) {
		t.Errorf("moving front: %d distinct topologies in %d steps", len(seen), len(path))
	}
}

func TestCheckersCatchViolations(t *testing.T) {
	orig := []float64{0, 1, 2, 3}
	bound := zmesh.AbsBound(0.1)
	if err := checkBound("ok", orig, []float64{0.05, 1, 2.0625, 2.9375}, bound); err != nil {
		t.Errorf("within bound: %v", err)
	}
	if checkBound("off", orig, []float64{0, 1, 2.2, 3}, bound) == nil {
		t.Error("a value 0.2 off passed a 0.1 bound")
	}
	if checkBound("short", orig, orig[:3], bound) == nil {
		t.Error("a short reconstruction passed")
	}
	if sameValues("same", orig, orig) != nil || sameValues("diff", []float64{0, 1, 2, math.Nextafter(3, 4)}, orig) == nil {
		t.Error("sameValues must be bit-exact")
	}
	var c checker
	c.done(nil)
	c.done(checkBound("off", orig, []float64{9, 9, 9, 9}, bound))
	if c.attempted != 2 || c.failed != 1 || len(c.failures) != 1 {
		t.Errorf("checker = %+v", &c)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "tput", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 100}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, base, []float64{104, 105, 103, 104, 104}, "ok"},
		{lower, base, []float64{115, 116, 114, 115, 115}, "regressed"},
		{higher, base, []float64{85, 86, 84, 85, 85}, "regressed"},
		{higher, base, []float64{115, 116, 114, 115, 115}, "ok"},
		{lower, []float64{80, 100, 120, 90, 110}, []float64{95, 100, 105, 100, 100}, "unresolved"},
		// Wide spread, but every run of B beats every run of A.
		{lower, []float64{80, 100, 120, 90, 110}, []float64{50, 51, 52, 50, 51}, "ok"},
	}
	for i, c := range cases {
		if got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("case %d: verdict = %s, want %s", i, got, c.want)
		}
	}
}

// TestSmoke runs all four workloads end to end at the -smoke scale, untraced,
// and one of them traced; nothing may fail a check, and the metrics reported
// must be exactly the ones BENCHMARK.json names.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	names := func(defs []metricDef) []string {
		var out []string
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("metric name %q is outside the allowed alphabet", d.Name)
			}
			out = append(out, d.Name)
		}
		sort.Strings(out)
		return out
	}
	run := func(workload string, traced bool, want []string) {
		rep, err := runWorkload(runConfig{workload: workload, seed: 3, seconds: 0.6, traced: traced, smoke: true, outDir: t.TempDir()})
		if err != nil {
			t.Fatalf("%s traced=%v: %v", workload, traced, err)
		}
		if rep.failed != 0 || rep.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", workload, rep.failed, rep.attempted, rep.failures)
		}
		have := make(map[string]bool)
		for n, v := range rep.metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v", workload, n, v)
			}
			have[n] = true
		}
		for _, n := range want {
			if !have[n] {
				t.Errorf("%s traced=%v: metric %s of BENCHMARK.json was not measured", workload, traced, n)
			}
			delete(have, n)
		}
		if traced { // a traced run also measures these two, and reports neither
			delete(have, "setup_s")
			delete(have, "pass_share")
		}
		for n := range have {
			t.Errorf("%s traced=%v: metric %s is measured but not in BENCHMARK.json", workload, traced, n)
		}
	}
	if len(spec.Workloads) != 4 || len(spec.EndToEnd) != 15 {
		t.Errorf("BENCHMARK.json has %d workloads and %d end-to-end metrics, want 4 and 15", len(spec.Workloads), len(spec.EndToEnd))
	}
	e2e, layers := names(spec.EndToEnd), names(spec.PerLayer)
	for _, w := range spec.Workloads {
		run(w.Name, false, e2e)
	}
	run(spec.Workloads[2].Name, true, layers)
}
