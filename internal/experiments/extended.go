package experiments

import (
	"fmt"
	"math"
	"runtime"
	"time"

	zmesh "repro"
	"repro/internal/amr"
	"repro/internal/compress"
	"repro/internal/compress/chunked"
	"repro/internal/compress/sz"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ThreeD (F10) extends the evaluation to a 3-D hierarchy: smoothness and
// SZ/ZFP ratios for the level-order baseline vs zMesh on a genuine 3-D
// Sedov blast solve projected onto a 3-D AMR hierarchy. Demonstrates that
// the chained-tree reordering and the 3-D Morton/Hilbert curves generalize
// beyond the paper's 2-D datasets.
func (s *Suite) ThreeD() (*Table, error) {
	depth := s.Cfg.MaxDepth - 1
	if depth < 2 {
		depth = 2
	}
	res3 := s.Cfg.Resolution / 4
	if res3 < 24 {
		res3 = 24
	}
	ck, err := sim.GenerateCheckpoint3D("sedov3d", res3, sim.Analytic3DOptions{
		BlockSize: s.Cfg.BlockSize,
		RootDims:  [3]int{2, 2, 2},
		MaxDepth:  depth,
		Threshold: s.Cfg.Threshold,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "F10 — 3-D generalization (blast3d): smoothness and ratios, level vs zMesh",
		Header: []string{"field", "layout", "smooth Δ%", "sz ratio", "zfp ratio"},
	}
	specs := []layoutSpec{
		{core.LevelOrder, "morton"},
		{core.ZMesh, "morton"},
		{core.ZMesh, "hilbert"},
	}
	szc, err := compress.Get("sz")
	if err != nil {
		return nil, err
	}
	zfpc, err := compress.Get("zfp")
	if err != nil {
		return nil, err
	}
	for _, f := range ck.Fields {
		base, err := fieldStream(ck, f.Name, specs[0])
		if err != nil {
			return nil, err
		}
		for _, sp := range specs {
			stream, err := fieldStream(ck, f.Name, sp)
			if err != nil {
				return nil, err
			}
			szBuf, err := szc.Compress(stream, []int{len(stream)}, compress.RelBound(1e-3))
			if err != nil {
				return nil, err
			}
			zfpBuf, err := zfpc.Compress(stream, []int{len(stream)}, compress.RelBound(1e-3))
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{
				f.Name, sp.String(),
				fmt.Sprintf("%+.1f", metrics.SmoothnessImprovement(base, stream)),
				fmt.Sprintf("%.2f", compress.Ratio(len(stream), szBuf)),
				fmt.Sprintf("%.2f", compress.Ratio(len(stream), zfpBuf)),
			})
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"3-D hierarchy: %d levels, %d blocks, %d values/field",
		ck.Mesh.MaxLevel()+1, ck.Mesh.NumBlocks(), ck.Mesh.NumBlocks()*ck.Mesh.CellsPerBlock()))
	return t, nil
}

// CodecComparison (T11) places the codecs side by side on every dataset at
// one representative bound, including the lossless floor — the
// cross-compressor view papers in this area lead with.
func (s *Suite) CodecComparison() (*Table, error) {
	const eb = 1e-3
	codecNames := []string{"gzip", "zfp", "sz"}
	header := []string{"dataset", "field"}
	for _, cn := range codecNames {
		header = append(header, cn+" (level)", cn+" (zmesh)")
	}
	t := &Table{
		Title:  fmt.Sprintf("T11 — codec comparison at rel %g: level order vs zMesh/hilbert", eb),
		Header: header,
	}
	specs := []layoutSpec{{core.LevelOrder, "morton"}, {core.ZMesh, "hilbert"}}
	for _, p := range s.Cfg.Problems {
		ck, err := s.Checkpoint(p)
		if err != nil {
			return nil, err
		}
		for _, fn := range s.Cfg.Fields {
			row := []string{p, fn}
			for _, cn := range codecNames {
				codec, err := compress.Get(cn)
				if err != nil {
					return nil, err
				}
				for _, sp := range specs {
					stream, err := fieldStream(ck, fn, sp)
					if err != nil {
						return nil, err
					}
					buf, err := codec.Compress(stream, []int{len(stream)}, compress.RelBound(eb))
					if err != nil {
						return nil, err
					}
					row = append(row, fmt.Sprintf("%.2f", compress.Ratio(len(stream), buf)))
				}
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"gzip is lossless (bound ignored): the floor error-bounded codecs must clear; "+
			"reordering cannot help it much since it sees raw IEEE bytes")
	return t, nil
}

// UniformGrid (T12) evaluates the codecs' native multi-dimensional modes on
// the raw uniform solver output (no AMR, no reordering): SZ as 1-D stream,
// SZ 2-D Lorenzo and ZFP 2-D. This isolates the codec machinery itself from
// the layouts.
func (s *Suite) UniformGrid() (*Table, error) {
	t := &Table{
		Title:  "T12 — uniform-grid codec modes at rel 1e-4 (no AMR)",
		Header: []string{"dataset", "field", "sz 1-D", "sz 2-D", "zfp 2-D"},
	}
	for _, p := range s.Cfg.Problems {
		prob, err := sim.Lookup(p)
		if err != nil {
			return nil, err
		}
		g, err := sim.Run(prob, s.Cfg.Resolution, s.Cfg.Resolution, 1)
		if err != nil {
			return nil, err
		}
		for _, fn := range s.Cfg.Fields {
			nx, ny := g.Nx, g.Ny
			data := make([]float64, nx*ny)
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					data[j*nx+i] = g.Quantity(fn, i, j)
				}
			}
			row := []string{p, fn}
			for _, mode := range []struct {
				codec string
				dims  []int
			}{
				{"sz", []int{nx * ny}},
				{"sz", []int{ny, nx}},
				{"zfp", []int{ny, nx}},
			} {
				c, err := compress.Get(mode.codec)
				if err != nil {
					return nil, err
				}
				buf, err := c.Compress(data, mode.dims, compress.RelBound(1e-4))
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2f", compress.Ratio(len(data), buf)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t, nil
}

// ParallelScaling (T13) measures chunk-parallel compression throughput of
// the zMesh stream as worker count grows, and the ratio cost of chunking —
// the trade-off ZFP's OpenMP mode and threaded SZ variants make.
func (s *Suite) ParallelScaling() (*Table, error) {
	ck, err := s.Checkpoint(s.Cfg.Problems[0])
	if err != nil {
		return nil, err
	}
	stream, err := fieldStream(ck, s.Cfg.Fields[0], layoutSpec{core.ZMesh, "hilbert"})
	if err != nil {
		return nil, err
	}
	// Replicate the stream to give the pool real work.
	for len(stream) < 1<<21 {
		stream = append(stream, stream...)
	}
	bound := compress.RelBound(1e-4)
	mb := float64(len(stream)*8) / (1 << 20)

	serial, err := compress.Get("sz")
	if err != nil {
		return nil, err
	}
	start := time.Now()
	serialBuf, err := serial.Compress(stream, []int{len(stream)}, bound)
	if err != nil {
		return nil, err
	}
	serialSec := time.Since(start).Seconds()
	serialRatio := compress.Ratio(len(stream), serialBuf)

	t := &Table{
		Title:  "T13 — chunk-parallel SZ compression scaling (zMesh stream)",
		Header: []string{"workers", "MB/s", "speedup", "ratio", "ratio vs serial %"},
		Notes: []string{
			fmt.Sprintf("serial (unchunked): %.1f MB/s, ratio %.2f", mb/serialSec, serialRatio),
			fmt.Sprintf("GOMAXPROCS=%d: speedup is capped by available cores; "+
				"on one core this table measures pure chunking overhead",
				runtime.GOMAXPROCS(0)),
		},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		c := &chunked.Compressor{Base: sz.New(), Workers: workers}
		start := time.Now()
		buf, err := c.Compress(stream, []int{len(stream)}, bound)
		if err != nil {
			return nil, err
		}
		sec := time.Since(start).Seconds()
		ratio := compress.Ratio(len(stream), buf)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", workers),
			fmt.Sprintf("%.1f", mb/sec),
			fmt.Sprintf("%.2fx", serialSec/sec),
			fmt.Sprintf("%.2f", ratio),
			fmt.Sprintf("%+.1f", 100*(ratio-serialRatio)/serialRatio),
		})
	}
	return t, nil
}

// PaddedLevels (F14) evaluates the alternative AMR compression strategy
// zMesh argues against: pad each refinement level to a dense 2-D array
// over its bounding box (zeros where no blocks exist) and compress with the
// codecs' native 2-D modes. Padding restores dimensionality but wastes
// effort on holes and still separates levels; the comparison quantifies
// that trade-off against 1-D level-order and zMesh.
func (s *Suite) PaddedLevels() (*Table, error) {
	const eb = 1e-3
	t := &Table{
		Title: "F14 — padded per-level 2-D compression vs 1-D layouts at rel 1e-3",
		Header: []string{"dataset", "field", "sz 1-D level", "sz 2-D padded",
			"sz zmesh", "zfp 1-D level", "zfp 2-D padded"},
	}
	szc, err := compress.Get("sz")
	if err != nil {
		return nil, err
	}
	zfpc, err := compress.Get("zfp")
	if err != nil {
		return nil, err
	}
	for _, p := range s.Cfg.Problems {
		ck, err := s.Checkpoint(p)
		if err != nil {
			return nil, err
		}
		for _, fn := range s.Cfg.Fields {
			f, ok := ck.Field(fn)
			if !ok {
				return nil, fmt.Errorf("experiments: field %q missing", fn)
			}
			flat := fieldFlat(f)
			abs := compress.AbsBound(compress.RelBound(eb).Absolute(flat))
			row := []string{p, fn}
			// 1-D level order.
			buf, err := szc.Compress(flat, []int{len(flat)}, abs)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", compress.Ratio(len(flat), buf)))
			// 2-D padded per level.
			szPadded, err := paddedLevelBytes(ck, f, szc, abs)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", float64(len(flat)*8)/float64(szPadded)))
			// zMesh 1-D.
			stream, err := fieldStream(ck, fn, layoutSpec{core.ZMesh, "hilbert"})
			if err != nil {
				return nil, err
			}
			buf, err = szc.Compress(stream, []int{len(stream)}, abs)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", compress.Ratio(len(stream), buf)))
			// ZFP 1-D level + 2-D padded.
			buf, err = zfpc.Compress(flat, []int{len(flat)}, abs)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", compress.Ratio(len(flat), buf)))
			zfpPadded, err := paddedLevelBytes(ck, f, zfpc, abs)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2f", float64(len(flat)*8)/float64(zfpPadded)))
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"padded ratios divide the ACTUAL data bytes by the compressed size of the padded arrays; "+
			"holes cost little after entropy coding but still dilute prediction contexts")
	return t, nil
}

// fieldFlat serializes a field level-by-level.
func fieldFlat(f *amr.Field) []float64 {
	return amr.Flatten(amr.LevelArrays(f))
}

// paddedLevelBytes compresses each level as a dense 2-D array over the
// level's block bounding box (zeros in holes) and returns total bytes.
func paddedLevelBytes(ck *sim.Checkpoint, f *amr.Field, codec compress.Compressor, bound compress.Bound) (int, error) {
	m := ck.Mesh
	bs := m.BlockSize()
	total := 0
	for level := 0; level <= m.MaxLevel(); level++ {
		ids := m.SortedLevel(level)
		if len(ids) == 0 {
			continue
		}
		minC := [2]int{1 << 30, 1 << 30}
		maxC := [2]int{-1, -1}
		for _, id := range ids {
			c := m.Block(id).Coord
			for d := 0; d < 2; d++ {
				if c[d] < minC[d] {
					minC[d] = c[d]
				}
				if c[d] > maxC[d] {
					maxC[d] = c[d]
				}
			}
		}
		nx := (maxC[0] - minC[0] + 1) * bs
		ny := (maxC[1] - minC[1] + 1) * bs
		dense := make([]float64, nx*ny)
		for _, id := range ids {
			c := m.Block(id).Coord
			ox := (c[0] - minC[0]) * bs
			oy := (c[1] - minC[1]) * bs
			data := f.Data(id)
			for j := 0; j < bs; j++ {
				for i := 0; i < bs; i++ {
					dense[(oy+j)*nx+(ox+i)] = data[j*bs+i]
				}
			}
		}
		buf, err := codec.Compress(dense, []int{ny, nx}, bound)
		if err != nil {
			return 0, err
		}
		total += len(buf)
	}
	return total, nil
}

// Temporal (T15) compares spatial re-encoding of every snapshot against
// delta encoding over a time series produced by the adaptive solver, through
// the public pipeline on both sides: zmesh.TemporalEncoder against
// Encoder.CompressField, full artifacts, envelope included. Deltas are taken
// against the previous snapshot's reconstruction, so the per-snapshot bound
// never accumulates — checked on what a TemporalDecoder gives back.
func (s *Suite) Temporal() (*Table, error) {
	mesh, u, err := amr.BuildAdaptive(amr.BuildOptions{
		Dims: 2, BlockSize: s.Cfg.BlockSize, RootDims: [3]int{2, 2, 1},
		MaxDepth: 3, Threshold: 0.3,
	}, func(x, y, z float64) float64 {
		dx, dy := x-0.35, y-0.35
		return math.Exp(-(dx*dx + dy*dy) / (2 * 0.05 * 0.05))
	})
	if err != nil {
		return nil, err
	}
	solver, err := sim.NewAdvectionDiffusion(mesh, u, 1, 1, 1e-4)
	if err != nil {
		return nil, err
	}
	opt := zmesh.DefaultOptions() // zmesh / hilbert / sz
	tenc, err := zmesh.NewTemporalEncoder(opt)
	if err != nil {
		return nil, err
	}
	tdec := zmesh.NewTemporalDecoder()
	const eb = 1e-4
	bound := zmesh.AbsBound(eb)
	t := &Table{
		Title:  "T15 — temporal delta encoding vs spatial re-encoding (SZ, abs 1e-4)",
		Header: []string{"snapshot", "frame", "spatial bytes", "temporal bytes", "saving %", "max err ok"},
	}
	var spatial *zmesh.Encoder // rebuilt with the topology, i.e. on keyframes
	const snapshots = 8
	for snap := 0; snap < snapshots; snap++ {
		tc, err := tenc.CompressSnapshot(u, bound)
		if err != nil {
			return nil, err
		}
		frame := "delta"
		if tc.Keyframe {
			frame = "key"
			if spatial, err = zmesh.NewEncoder(mesh, opt); err != nil {
				return nil, err
			}
		}
		sc, err := spatial.CompressField(u, bound)
		if err != nil {
			return nil, err
		}
		got, err := tdec.DecompressSnapshot(tc)
		if err != nil {
			return nil, err
		}
		maxe, err := zmesh.MaxAbsError(u, got)
		if err != nil {
			return nil, err
		}
		saving := 100 * (1 - float64(len(tc.Payload))/float64(len(sc.Payload)))
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", snap), frame,
			fmt.Sprintf("%d", len(sc.Payload)),
			fmt.Sprintf("%d", len(tc.Payload)),
			fmt.Sprintf("%+.1f", saving),
			fmt.Sprintf("%v", maxe <= eb),
		})
		if snap < snapshots-1 {
			if err := solver.Run(solver.Time+0.02, 4, 0.3, 3); err != nil {
				return nil, err
			}
		}
	}
	t.Notes = append(t.Notes,
		"regrids force keyframes (saving 0%); between regrids delta frames shrink with temporal coherence")
	return t, nil
}

// locality diagnostics used by the F2 discussion: mean geometric distance
// between stream-consecutive samples, per layout.
func meanStreamJump(ck *sim.Checkpoint, spec layoutSpec) (float64, error) {
	m := ck.Mesh
	recipe, err := core.BuildRecipe(m, spec.layout, spec.curve)
	if err != nil {
		return 0, err
	}
	// Physical coordinates per level-order position.
	coords := make([][3]float64, 0, recipe.Len())
	bs := m.BlockSize()
	kmax := 1
	if m.Dims() == 3 {
		kmax = bs
	}
	for level := 0; level <= m.MaxLevel(); level++ {
		for _, id := range m.SortedLevel(level) {
			for k := 0; k < kmax; k++ {
				for j := 0; j < bs; j++ {
					for i := 0; i < bs; i++ {
						coords = append(coords, m.CellCenter(id, i, j, k))
					}
				}
			}
		}
	}
	perm := recipe.Perm()
	var total float64
	for t := 1; t < len(perm); t++ {
		a, b := coords[perm[t-1]], coords[perm[t]]
		dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
		total += dx*dx + dy*dy + dz*dz
	}
	return total / float64(len(perm)-1), nil
}

// Locality is a diagnostic table (not a paper artefact): mean squared
// geometric distance between consecutive stream samples per layout, the
// mechanism behind the F2 smoothness numbers.
func (s *Suite) Locality() (*Table, error) {
	t := &Table{
		Title:  "diagnostic — mean squared geometric jump between consecutive stream samples",
		Header: []string{"dataset", "level", "sfc-level/hilbert", "zmesh/hilbert"},
	}
	specs := []layoutSpec{
		{core.LevelOrder, "morton"},
		{core.SFCWithinLevel, "hilbert"},
		{core.ZMesh, "hilbert"},
	}
	for _, p := range s.Cfg.Problems {
		ck, err := s.Checkpoint(p)
		if err != nil {
			return nil, err
		}
		row := []string{p}
		for _, sp := range specs {
			j, err := meanStreamJump(ck, sp)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.2e", j))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}
