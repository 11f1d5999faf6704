package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// verdict applies one metric's bound to two sets of runs. A metric regressed
// when B's median is worse than A's by more than the bound; it is unresolved
// when either side's quartiles lie further apart than the bound, unless
// every run of B reads better than every run of A.
func verdict(d metricDef, a, b []float64) string {
	sa, sb := summarize(a), summarize(b)
	higher := d.Better == "higher"
	worse := (sb.Med - sa.Med) / sa.Med // share of A's median by which B is worse
	if higher {
		worse = -worse
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (higher && y <= x) || (!higher && y >= x) {
				allBetter = false
			}
		}
	}
	spread := func(s summary) float64 { return (s.Q3 - s.Q1) / s.Med }
	switch {
	case (spread(sa) > d.Bound || spread(sb) > d.Bound) && !allBetter:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	}
	return "ok"
}

// compareFiles prints one row per (workload, end-to-end metric) of two saved
// result files, B against A, and reports whether any row regressed.
func compareFiles(w io.Writer, spec *benchSpec, pathA, pathB string) (regressed bool, err error) {
	fa, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	fb, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (seed %d), B = %s (seed %d); B/A is B's median over A's\n", pathA, fa.Seed, pathB, fb.Seed)
	fmt.Fprintf(w, "%-16s %-26s %-6s %6s  %-34s %-34s %8s  %s\n",
		"workload", "metric", "better", "bound", "A median [q1, q3] n", "B median [q1, q3] n", "B/A", "verdict")
	for _, wl := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			a, b := column(fa.Runs[wl.Name], d.Name), column(fb.Runs[wl.Name], d.Name)
			if len(a) == 0 || len(b) == 0 {
				return false, fmt.Errorf("%s/%s: missing from one of the files", wl.Name, d.Name)
			}
			sa, sb := summarize(a), summarize(b)
			v := verdict(d, a, b)
			if v == "regressed" {
				regressed = true
			}
			cell := func(s summary) string { return fmt.Sprintf("%.5g [%.5g, %.5g] %d", s.Med, s.Q1, s.Q3, s.N) }
			fmt.Fprintf(w, "%-16s %-26s %-6s %5.1f%%  %-34s %-34s %8.4f  %s\n",
				wl.Name, d.Name, d.Better, 100*d.Bound, cell(sa), cell(sb), sb.Med/sa.Med, v)
		}
	}
	return regressed, nil
}

func column(runs []map[string]float64, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r[name]; ok {
			out = append(out, v)
		}
	}
	return out
}
