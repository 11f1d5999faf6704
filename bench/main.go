// Command bench is the repository's benchmark: four workloads, fifteen
// end-to-end metrics and a per-layer breakdown from a traced run. It measures
// every layer from outside, by timing calls into the program's public
// functions and reading the telemetry the program already exposes. See
// README.md in this directory for the workloads, the metrics and how they
// interact; BENCHMARK.json at the repository root names the metrics, their
// units, directions and regression bounds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// metricValue is one reported number in the driver's result format.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what a whole-benchmark run saves for -compare.
type resultFile struct {
	Machine map[string]any                  `json:"machine"`
	Seed    int64                           `json:"seed"`
	Runs    map[string][]map[string]float64 `json:"runs"` // workload → one metric map per repeat
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload and print one JSON result line (default: all four, table + JSON)")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		smoke    = flag.Bool("smoke", false, "tiny inputs and sub-second phases: checks the plumbing, measures nothing")
		repeats  = flag.Int("repeats", 1, "with no -workload: untraced runs per workload")
		save     = flag.String("save", "", "with no -workload: also write the results to this file for -compare")
		compare  = flag.Bool("compare", false, "compare two saved result files: -compare A.json B.json")
	)
	flag.Parse()

	root, err := findRoot()
	if err != nil {
		fatal(err)
	}
	spec, err := loadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(errors.New("usage: bench -compare A.json B.json"))
		}
		regressed, err := compareFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: *seconds,
		traced:  *trace != 0,
		smoke:   *smoke,
		outDir:  filepath.Join(root, "bench", "out"),
	}
	if *workload != "" {
		cfg.workload = *workload
		os.Exit(runOne(cfg, spec))
	}
	os.Exit(runAll(cfg, spec, *repeats, *save))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// findRoot locates the repository root (the directory holding
// BENCHMARK.json) from the repository root itself or from bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root or from bench/")
}

// runOne runs one workload in this process and prints the driver's result
// line. A correctness failure makes the exit code non-zero.
func runOne(cfg runConfig, spec *benchSpec) int {
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue),
	}
	defs := spec.EndToEnd
	if cfg.traced {
		defs = spec.PerLayer
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: metric %s of BENCHMARK.json was not measured\n", d.Name)
			return 2
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	printReport(os.Stdout, cfg, rep, defs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

// printReport is the human-readable table: every metric by name with its
// unit, and for timings the sample count, median and quartiles.
func printReport(w *os.File, cfg runConfig, rep *report, defs []metricDef) {
	kind := "end-to-end, tracing off"
	if cfg.traced {
		kind = "per-layer, traced"
	}
	fmt.Fprintf(w, "# workload %s seed %d (%s)  nproc=%d GOMAXPROCS=%d %s kernel=%s\n",
		cfg.workload, cfg.seed, kind, runtime.NumCPU(), procs, runtime.Version(), core.KernelTier())
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, d := range defs {
		line := fmt.Sprintf("%-40s %14.6g %-8s", d.Name, rep.metrics[d.Name], d.Unit)
		if s, ok := rep.detail[d.Name]; ok {
			line += fmt.Sprintf("  n=%d q1=%.6g median=%.6g q3=%.6g", s.N, s.Q1, s.Med, s.Q3)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", rep.attempted, rep.failed)
	for _, f := range rep.failures {
		fmt.Fprintf(w, "FAILED: %s\n", f)
	}
}

// runAll runs every workload in a child process of its own — untraced
// `repeats` times, then traced once — and prints the children's tables.
func runAll(cfg runConfig, spec *benchSpec, repeats int, save string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	out := resultFile{
		Machine: machineInfo(),
		Seed:    cfg.seed,
		Runs:    make(map[string][]map[string]float64),
	}
	code := 0
	for _, w := range spec.Workloads {
		for i := 0; i <= repeats; i++ {
			traced := i == repeats
			args := []string{
				"-workload", w.Name,
				"-seed", fmt.Sprint(cfg.seed),
				"-seconds", fmt.Sprint(cfg.seconds),
			}
			if traced {
				args = append(args, "-trace", "1")
			}
			if cfg.smoke {
				args = append(args, "-smoke")
			}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			os.Stdout.Write(stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
				code = 1
			}
			res, perr := lastResult(stdout)
			if perr != nil {
				fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, perr)
				code = 1
				continue
			}
			if !traced {
				vals := make(map[string]float64, len(res.Metrics))
				for name, mv := range res.Metrics {
					vals[name] = mv.Value
				}
				out.Runs[w.Name] = append(out.Runs[w.Name], vals)
			}
		}
	}
	if save != "" {
		b, err := json.MarshalIndent(out, "", " ")
		if err == nil {
			err = os.WriteFile(save, b, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 2
		}
	}
	return code
}

// lastResult parses the result line that ends a single-workload run's output.
func lastResult(stdout []byte) (*result, error) {
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}

// machineInfo records what the numbers were taken on; cache sizes sit next
// to the input sizes in the README.
func machineInfo() map[string]any {
	return map[string]any{
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  procs,
		"go":          runtime.Version(),
		"kernel_tier": core.KernelTier(),
		"caches":      cacheSizes(),
		"time":        time.Now().UTC().Format(time.RFC3339),
	}
}

// cacheSizes reads the data/unified cache sizes of cpu0 from sysfs
// ("L2": "4096K"); empty where sysfs does not say.
func cacheSizes() map[string]string {
	out := make(map[string]string)
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	sort.Strings(dirs)
	for _, d := range dirs {
		read := func(name string) string {
			b, _ := os.ReadFile(filepath.Join(d, name))
			return strings.TrimSpace(string(b))
		}
		if t := read("type"); t == "Data" || t == "Unified" {
			out["L"+read("level")] = read("size")
		}
	}
	return out
}
