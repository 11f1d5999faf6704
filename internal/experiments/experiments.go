// Package experiments implements the reproduction of every table and figure
// in the zMesh evaluation (as reconstructed in EXPERIMENTS.md). Each
// experiment is a pure function from a dataset suite to structured rows, so
// the same code backs the zmesh-bench CLI and the testing.B benchmarks.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/amr"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"

	// Register codecs.
	_ "repro/internal/compress/lossless"
	_ "repro/internal/compress/sz"
	_ "repro/internal/compress/zfp"
)

// Config scales the evaluation. The defaults reproduce the headline shapes
// in a few minutes; larger Resolution/MaxDepth sharpen the numbers.
type Config struct {
	Problems   []string
	Fields     []string
	Resolution int
	BlockSize  int
	RootDims   [3]int
	MaxDepth   int
	Threshold  float64
	Bounds     []float64 // relative error bounds for the sweeps
}

// DefaultConfig is the configuration used by EXPERIMENTS.md.
func DefaultConfig() Config {
	return Config{
		Problems:   []string{"sod", "sedov", "blast", "kh"},
		Fields:     []string{"dens", "pres", "velx"},
		Resolution: 256,
		BlockSize:  8,
		RootDims:   [3]int{2, 2, 1},
		MaxDepth:   4,
		Threshold:  0.35,
		Bounds:     []float64{1e-2, 1e-3, 1e-4, 1e-5, 1e-6},
	}
}

// QuickConfig is a scaled-down configuration for unit tests.
func QuickConfig() Config {
	return Config{
		Problems:   []string{"sedov"},
		Fields:     []string{"dens"},
		Resolution: 64,
		BlockSize:  8,
		RootDims:   [3]int{2, 2, 1},
		MaxDepth:   2,
		Threshold:  0.35,
		Bounds:     []float64{1e-2, 1e-4},
	}
}

// Suite caches generated checkpoints across experiments.
type Suite struct {
	Cfg Config

	mu  sync.Mutex
	cks map[string]*sim.Checkpoint
}

// NewSuite creates a suite for the configuration.
func NewSuite(cfg Config) *Suite {
	return &Suite{Cfg: cfg, cks: make(map[string]*sim.Checkpoint)}
}

// Checkpoint generates (or returns the cached) checkpoint for a problem.
func (s *Suite) Checkpoint(problem string) (*sim.Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ck, ok := s.cks[problem]; ok {
		return ck, nil
	}
	ck, err := sim.GenerateCheckpoint(problem, sim.CheckpointOptions{
		Resolution: s.Cfg.Resolution,
		TScale:     1,
		BlockSize:  s.Cfg.BlockSize,
		RootDims:   s.Cfg.RootDims,
		MaxDepth:   s.Cfg.MaxDepth,
		Threshold:  s.Cfg.Threshold,
	})
	if err != nil {
		return nil, err
	}
	s.cks[problem] = ck
	return ck, nil
}

// layoutSpec pairs a layout with a sibling curve.
type layoutSpec struct {
	layout core.Layout
	curve  string
}

func (l layoutSpec) String() string {
	if l.layout == core.LevelOrder {
		return "level"
	}
	return fmt.Sprintf("%v/%s", l.layout, l.curve)
}

// standardLayouts is the comparison set used across experiments: the
// baseline, the within-level SFC orders, and zMesh with both curves.
func standardLayouts() []layoutSpec {
	return []layoutSpec{
		{core.LevelOrder, "morton"},
		{core.SFCWithinLevel, "morton"},
		{core.SFCWithinLevel, "hilbert"},
		{core.ZMesh, "morton"},
		{core.ZMesh, "hilbert"},
	}
}

// fieldStream serializes a named field of a checkpoint in a layout.
func fieldStream(ck *sim.Checkpoint, fieldName string, spec layoutSpec) ([]float64, error) {
	f, ok := ck.Field(fieldName)
	if !ok {
		return nil, fmt.Errorf("experiments: field %q missing", fieldName)
	}
	flat := amr.Flatten(amr.LevelArrays(f))
	recipe, err := core.BuildRecipe(ck.Mesh, spec.layout, spec.curve)
	if err != nil {
		return nil, err
	}
	return recipe.Apply(flat)
}

// Table is a generic result table: a header plus formatted rows, printable
// in the layout the paper's tables use.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n%s\n", n)
	}
	return b.String()
}

// IDs of the experiments, in presentation order.
func ExperimentIDs() []string {
	return []string{"T1", "F2", "F3", "F4", "F5", "T6", "F7", "T8", "F9", "F10", "T11", "T12", "T13", "F14", "T15", "T16"}
}

// Run dispatches one experiment by ID. Besides the listed IDs, "DIAG" runs
// the stream-locality diagnostic behind the F2 discussion.
func (s *Suite) Run(id string) (*Table, error) {
	switch strings.ToUpper(id) {
	case "T1":
		return s.DatasetInventory()
	case "F2":
		return s.Smoothness()
	case "F3":
		return s.RatioSweep("sz")
	case "F4":
		return s.RatioSweep("zfp")
	case "F5":
		return s.RateDistortion()
	case "T6":
		return s.ErrorCompliance()
	case "F7":
		return s.Amortization()
	case "T8":
		return s.Throughput()
	case "F9":
		return s.Ablation()
	case "F10":
		return s.ThreeD()
	case "T11":
		return s.CodecComparison()
	case "T12":
		return s.UniformGrid()
	case "T13":
		return s.ParallelScaling()
	case "F14":
		return s.PaddedLevels()
	case "T15":
		return s.Temporal()
	case "T16":
		return s.TACComparison()
	case "DIAG":
		return s.Locality()
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, ExperimentIDs())
}

// DatasetInventory (T1) summarizes the generated datasets.
func (s *Suite) DatasetInventory() (*Table, error) {
	t := &Table{
		Title:  "T1 — dataset inventory",
		Header: []string{"dataset", "levels", "blocks", "leaves", "cells/field", "quantities"},
	}
	for _, p := range s.Cfg.Problems {
		ck, err := s.Checkpoint(p)
		if err != nil {
			return nil, err
		}
		m := ck.Mesh
		t.Rows = append(t.Rows, []string{
			p,
			fmt.Sprintf("%d", m.MaxLevel()+1),
			fmt.Sprintf("%d", m.NumBlocks()),
			fmt.Sprintf("%d", m.NumLeaves()),
			fmt.Sprintf("%d", m.NumBlocks()*m.CellsPerBlock()),
			fmt.Sprintf("%d", len(ck.Fields)),
		})
	}
	return t, nil
}

// Smoothness (F2) measures total-variation smoothness improvement of each
// reordering over the level-order baseline (the paper's 67.9% / 71.3%
// claim).
func (s *Suite) Smoothness() (*Table, error) {
	specs := standardLayouts()
	header := []string{"dataset", "field"}
	for _, sp := range specs[1:] {
		header = append(header, sp.String()+" Δ%")
	}
	t := &Table{Title: "F2 — smoothness improvement over level order (higher is better)", Header: header}
	var meanImp = map[string]float64{}
	var count float64
	for _, p := range s.Cfg.Problems {
		ck, err := s.Checkpoint(p)
		if err != nil {
			return nil, err
		}
		for _, fn := range s.Cfg.Fields {
			base, err := fieldStream(ck, fn, specs[0])
			if err != nil {
				return nil, err
			}
			row := []string{p, fn}
			for _, sp := range specs[1:] {
				ordered, err := fieldStream(ck, fn, sp)
				if err != nil {
					return nil, err
				}
				imp := metrics.SmoothnessImprovement(base, ordered)
				meanImp[sp.String()] += imp
				row = append(row, fmt.Sprintf("%+.1f", imp))
			}
			count++
			t.Rows = append(t.Rows, row)
		}
	}
	keys := make([]string, 0, len(meanImp))
	for k := range meanImp {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Notes = append(t.Notes, fmt.Sprintf("mean %-18s %+.1f%%", k, meanImp[k]/count))
	}
	return t, nil
}

// RatioSweep (F3 for sz, F4 for zfp) sweeps relative error bounds and
// reports compression ratios per layout.
func (s *Suite) RatioSweep(codecName string) (*Table, error) {
	codec, err := compress.Get(codecName)
	if err != nil {
		return nil, err
	}
	specs := standardLayouts()
	header := []string{"dataset", "field", "rel bound"}
	for _, sp := range specs {
		header = append(header, sp.String())
	}
	header = append(header, "zmesh gain %")
	id := "F3"
	if codecName == "zfp" {
		id = "F4"
	}
	t := &Table{
		Title:  fmt.Sprintf("%s — %s compression ratio vs error bound", id, strings.ToUpper(codecName)),
		Header: header,
	}
	var bestGain float64
	for _, p := range s.Cfg.Problems {
		ck, err := s.Checkpoint(p)
		if err != nil {
			return nil, err
		}
		for _, fn := range s.Cfg.Fields {
			for _, eb := range s.Cfg.Bounds {
				row := []string{p, fn, fmt.Sprintf("%.0e", eb)}
				var rLevel, rZMesh float64
				for _, sp := range specs {
					stream, err := fieldStream(ck, fn, sp)
					if err != nil {
						return nil, err
					}
					buf, err := codec.Compress(stream, []int{len(stream)}, compress.RelBound(eb))
					if err != nil {
						return nil, err
					}
					r := compress.Ratio(len(stream), buf)
					if sp.layout == core.LevelOrder {
						rLevel = r
					}
					if sp.layout == core.ZMesh && sp.curve == "hilbert" {
						rZMesh = r
					}
					row = append(row, fmt.Sprintf("%.2f", r))
				}
				gain := 100 * (rZMesh - rLevel) / rLevel
				if gain > bestGain {
					bestGain = gain
				}
				row = append(row, fmt.Sprintf("%+.1f", gain))
				t.Rows = append(t.Rows, row)
			}
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("max zMesh(hilbert) gain over level order: %+.1f%%", bestGain))
	return t, nil
}

// RateDistortion (F5) reports bits/value and PSNR across the bound sweep
// for the baseline and zMesh layouts.
func (s *Suite) RateDistortion() (*Table, error) {
	szc, err := compress.Get("sz")
	if err != nil {
		return nil, err
	}
	specs := []layoutSpec{{core.LevelOrder, "morton"}, {core.ZMesh, "hilbert"}}
	t := &Table{
		Title: "F5 — rate–distortion (SZ): bits/value at PSNR, level order vs zMesh",
		Header: []string{"dataset", "field", "rel bound",
			"level bits/val", "level PSNR dB", "zmesh bits/val", "zmesh PSNR dB"},
	}
	for _, p := range s.Cfg.Problems {
		ck, err := s.Checkpoint(p)
		if err != nil {
			return nil, err
		}
		for _, fn := range s.Cfg.Fields {
			for _, eb := range s.Cfg.Bounds {
				row := []string{p, fn, fmt.Sprintf("%.0e", eb)}
				for _, sp := range specs {
					stream, err := fieldStream(ck, fn, sp)
					if err != nil {
						return nil, err
					}
					buf, err := szc.Compress(stream, []int{len(stream)}, compress.RelBound(eb))
					if err != nil {
						return nil, err
					}
					recon, err := szc.Decompress(buf)
					if err != nil {
						return nil, err
					}
					psnr, err := metrics.PSNR(stream, recon)
					if err != nil {
						return nil, err
					}
					row = append(row,
						fmt.Sprintf("%.3f", metrics.BitsPerValue(len(stream), len(buf))),
						fmt.Sprintf("%.1f", psnr))
				}
				t.Rows = append(t.Rows, row)
			}
		}
	}
	return t, nil
}

// ErrorCompliance (T6) verifies the point-wise bound for every codec,
// layout and bound, and that restore is a bit-exact permutation.
func (s *Suite) ErrorCompliance() (*Table, error) {
	t := &Table{
		Title:  "T6 — error-bound compliance (max observed error / bound; must be <= 1)",
		Header: []string{"dataset", "codec", "layout", "rel bound", "max err / bound", "restore exact"},
	}
	specs := []layoutSpec{{core.LevelOrder, "morton"}, {core.ZMesh, "hilbert"}}
	for _, p := range s.Cfg.Problems {
		ck, err := s.Checkpoint(p)
		if err != nil {
			return nil, err
		}
		f, ok := ck.Field(s.Cfg.Fields[0])
		if !ok {
			return nil, fmt.Errorf("experiments: field %q missing", s.Cfg.Fields[0])
		}
		flat := amr.Flatten(amr.LevelArrays(f))
		for _, codecName := range []string{"sz", "zfp"} {
			codec, err := compress.Get(codecName)
			if err != nil {
				return nil, err
			}
			for _, sp := range specs {
				recipe, err := core.BuildRecipe(ck.Mesh, sp.layout, sp.curve)
				if err != nil {
					return nil, err
				}
				ordered, err := recipe.Apply(flat)
				if err != nil {
					return nil, err
				}
				// Restore must be bit-exact (pure permutation).
				back, err := recipe.Restore(ordered)
				if err != nil {
					return nil, err
				}
				exact := true
				for i := range flat {
					if back[i] != flat[i] {
						exact = false
						break
					}
				}
				for _, eb := range s.Cfg.Bounds {
					bound := compress.RelBound(eb)
					buf, err := codec.Compress(ordered, []int{len(ordered)}, bound)
					if err != nil {
						return nil, err
					}
					recon, err := codec.Decompress(buf)
					if err != nil {
						return nil, err
					}
					maxe, err := metrics.MaxAbsError(ordered, recon)
					if err != nil {
						return nil, err
					}
					abs := bound.Absolute(ordered)
					t.Rows = append(t.Rows, []string{
						p, codecName, sp.String(), fmt.Sprintf("%.0e", eb),
						fmt.Sprintf("%.3f", maxe/abs),
						fmt.Sprintf("%v", exact),
					})
				}
			}
		}
	}
	return t, nil
}

// Amortization (F7) measures the recipe-construction overhead relative to
// compression work as the number of quantities grows — the paper's claim
// that tree/recipe cost is amortized across quantities.
func (s *Suite) Amortization() (*Table, error) {
	ck, err := s.Checkpoint(s.Cfg.Problems[0])
	if err != nil {
		return nil, err
	}
	szc, err := compress.Get("sz")
	if err != nil {
		return nil, err
	}
	flat := make([][]float64, 0, len(ck.Fields))
	for _, f := range ck.Fields {
		flat = append(flat, amr.Flatten(amr.LevelArrays(f)))
	}
	t := &Table{
		Title: "F7 — recipe-construction overhead amortization (zMesh/hilbert, SZ)",
		Header: []string{"quantities", "recipe ms", "reorder+compress ms",
			"overhead %", "per-quantity overhead ms"},
	}
	for _, nq := range []int{1, 2, 4, 8, 16} {
		start := time.Now()
		recipe, err := core.BuildRecipe(ck.Mesh, core.ZMesh, "hilbert")
		if err != nil {
			return nil, err
		}
		recipeTime := time.Since(start)
		var compTime time.Duration
		for q := 0; q < nq; q++ {
			data := flat[q%len(flat)]
			start = time.Now()
			ordered, err := recipe.Apply(data)
			if err != nil {
				return nil, err
			}
			if _, err := szc.Compress(ordered, []int{len(ordered)}, compress.RelBound(1e-4)); err != nil {
				return nil, err
			}
			compTime += time.Since(start)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", nq),
			fmt.Sprintf("%.2f", recipeTime.Seconds()*1e3),
			fmt.Sprintf("%.2f", compTime.Seconds()*1e3),
			fmt.Sprintf("%.1f", 100*recipeTime.Seconds()/(recipeTime.Seconds()+compTime.Seconds())),
			fmt.Sprintf("%.3f", recipeTime.Seconds()*1e3/float64(nq)),
		})
	}
	t.Notes = append(t.Notes,
		"the recipe is built once per topology; its per-quantity share shrinks as 1/#quantities")
	return t, nil
}

// Throughput (T8) measures end-to-end compression and decompression
// throughput per codec and layout, verifying reconstruction on the way.
func (s *Suite) Throughput() (*Table, error) {
	ck, err := s.Checkpoint(s.Cfg.Problems[0])
	if err != nil {
		return nil, err
	}
	f, ok := ck.Field(s.Cfg.Fields[0])
	if !ok {
		return nil, fmt.Errorf("experiments: field missing")
	}
	flat := amr.Flatten(amr.LevelArrays(f))
	mb := float64(len(flat)*8) / (1 << 20)
	t := &Table{
		Title:  "T8 — end-to-end throughput (single thread)",
		Header: []string{"codec", "layout", "compress MB/s", "decompress MB/s", "ratio"},
	}
	specs := []layoutSpec{{core.LevelOrder, "morton"}, {core.ZMesh, "hilbert"}}
	for _, codecName := range []string{"sz", "zfp"} {
		codec, err := compress.Get(codecName)
		if err != nil {
			return nil, err
		}
		for _, sp := range specs {
			recipe, err := core.BuildRecipe(ck.Mesh, sp.layout, sp.curve)
			if err != nil {
				return nil, err
			}
			const reps = 5
			var encT, decT time.Duration
			var buf []byte
			for r := 0; r < reps; r++ {
				start := time.Now()
				ordered, err := recipe.Apply(flat)
				if err != nil {
					return nil, err
				}
				buf, err = codec.Compress(ordered, []int{len(ordered)}, compress.RelBound(1e-4))
				if err != nil {
					return nil, err
				}
				encT += time.Since(start)
				start = time.Now()
				recon, err := codec.Decompress(buf)
				if err != nil {
					return nil, err
				}
				if _, err := recipe.Restore(recon); err != nil {
					return nil, err
				}
				decT += time.Since(start)
			}
			t.Rows = append(t.Rows, []string{
				codecName, sp.String(),
				fmt.Sprintf("%.1f", mb*reps/encT.Seconds()),
				fmt.Sprintf("%.1f", mb*reps/decT.Seconds()),
				fmt.Sprintf("%.2f", compress.Ratio(len(flat), buf)),
			})
		}
	}
	return t, nil
}

// Ablation (F9) isolates zMesh's one remaining design choice: the
// sibling-order curve (morton / hilbert / rowmajor).
func (s *Suite) Ablation() (*Table, error) {
	szc, err := compress.Get("sz")
	if err != nil {
		return nil, err
	}
	specs := []layoutSpec{
		{core.ZMesh, "rowmajor"},
		{core.ZMesh, "morton"},
		{core.ZMesh, "hilbert"},
	}
	header := []string{"dataset", "field"}
	for _, sp := range specs {
		header = append(header, sp.String())
	}
	t := &Table{
		Title:  "F9 — design ablation: SZ ratio at rel 1e-3 by sibling curve",
		Header: header,
	}
	for _, p := range s.Cfg.Problems {
		ck, err := s.Checkpoint(p)
		if err != nil {
			return nil, err
		}
		for _, fn := range s.Cfg.Fields {
			row := []string{p, fn}
			for _, sp := range specs {
				stream, err := fieldStream(ck, fn, sp)
				if err != nil {
					return nil, err
				}
				buf, err := szc.Compress(stream, []int{len(stream)}, compress.RelBound(1e-3))
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2f", compress.Ratio(len(stream), buf)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}
