// Command zmesh is the end-to-end CLI for the zMesh reproduction: generate
// AMR checkpoints from the built-in simulations, compress them with the
// zMesh reordering (or the baselines) over SZ/ZFP, decompress, inspect, and
// verify error bounds.
//
// Typical session:
//
//	zmesh generate -problem sedov -res 256 -o sedov.ckpt
//	zmesh compress -i sedov.ckpt -o sedov.zm -layout zmesh -curve hilbert -codec sz -rel 1e-4
//	zmesh decompress -i sedov.zm -o restored.ckpt
//	zmesh verify -orig sedov.ckpt -recon restored.ckpt -rel 1e-4
//	zmesh info -i sedov.zm
package main

import (
	"flag"
	"fmt"
	"image"
	"image/png"
	"os"

	zmesh "repro"
	"repro/internal/amr"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/render"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: zmesh <command> [flags]

commands:
  generate    run a built-in simulation and write an AMR checkpoint
  compress    compress a checkpoint into a zMesh archive
  decompress  restore a checkpoint from an archive
  info        describe a checkpoint or archive
  verify      check a reconstruction against the original and a bound
  render      rasterize a checkpoint field (or the AMR level map) to PNG

run "zmesh <command> -h" for command flags
`)
	os.Exit(2)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "compress":
		err = cmdCompress(os.Args[2:])
	case "decompress":
		err = cmdDecompress(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "render":
		err = cmdRender(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "zmesh: unknown command %q\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "zmesh: %v\n", err)
		os.Exit(1)
	}
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	problem := fs.String("problem", "sedov", fmt.Sprintf("simulation problem %v", zmesh.Problems()))
	res := fs.Int("res", 256, "uniform solver resolution")
	blockSize := fs.Int("block", 8, "AMR block size (cells per side)")
	depth := fs.Int("depth", 4, "maximum refinement depth")
	threshold := fs.Float64("threshold", 0.35, "refinement threshold (Löhner indicator)")
	out := fs.String("o", "", "output checkpoint path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("generate: -o is required")
	}
	ck, err := zmesh.Generate(*problem, zmesh.GenerateOptions{
		Resolution: *res,
		BlockSize:  *blockSize,
		MaxDepth:   *depth,
		Threshold:  *threshold,
	})
	if err != nil {
		return err
	}
	file := dataset.FromFields(*problem, ck.Mesh, ck.Fields)
	if err := dataset.SaveCheckpoint(*out, file); err != nil {
		return err
	}
	fmt.Printf("generated %s: %d levels, %d blocks (%d leaves), %d quantities -> %s\n",
		*problem, ck.Mesh.MaxLevel()+1, ck.Mesh.NumBlocks(), ck.Mesh.NumLeaves(),
		len(ck.Fields), *out)
	return nil
}

// loadFields rebuilds a mesh and live fields from a checkpoint file.
func loadFields(path string) (*dataset.CheckpointFile, *amr.Mesh, []*amr.Field, error) {
	file, err := dataset.LoadCheckpoint(path)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := file.Mesh()
	if err != nil {
		return nil, nil, nil, err
	}
	fields := make([]*amr.Field, 0, len(file.Fields))
	for _, fd := range file.Fields {
		f, err := amr.FieldFromLevelArrays(m, fd.Name, fd.Levels)
		if err != nil {
			return nil, nil, nil, err
		}
		fields = append(fields, f)
	}
	return file, m, fields, nil
}

func parseBound(rel, abs float64) (zmesh.Bound, string, float64, error) {
	switch {
	case rel > 0 && abs > 0:
		return zmesh.Bound{}, "", 0, fmt.Errorf("use only one of -rel and -abs")
	case abs > 0:
		return zmesh.AbsBound(abs), "abs", abs, nil
	case rel > 0:
		return zmesh.RelBound(rel), "rel", rel, nil
	default:
		return zmesh.Bound{}, "", 0, fmt.Errorf("one of -rel or -abs is required")
	}
}

func cmdCompress(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	in := fs.String("i", "", "input checkpoint (required)")
	out := fs.String("o", "", "output archive (required)")
	layoutName := fs.String("layout", "zmesh", "layout: level | sfc-level | zmesh | tac | auto (resolved from mesh dims and codec, recorded in the archive)")
	curve := fs.String("curve", "hilbert", "sibling curve: morton | hilbert | rowmajor")
	codec := fs.String("codec", "sz", "compressor: sz | zfp")
	rel := fs.Float64("rel", 0, "relative error bound (fraction of value range)")
	abs := fs.Float64("abs", 0, "absolute error bound")
	metricsAddr := fs.String("metricsaddr", "", "serve expvar + pprof telemetry on this address (e.g. localhost:6060)")
	stats := fs.Bool("stats", false, "dump a telemetry JSON snapshot to stderr when done")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("compress: -i and -o are required")
	}
	bound, bmode, bval, err := parseBound(*rel, *abs)
	if err != nil {
		return err
	}
	layout, err := core.ParseLayout(*layoutName)
	if err != nil {
		return err
	}
	file, m, fields, err := loadFields(*in)
	if err != nil {
		return err
	}
	enc, err := zmesh.NewEncoder(m, zmesh.Options{Layout: layout, Curve: *curve, Codec: *codec})
	if err != nil {
		return err
	}
	reg, flushStats, err := setupTelemetry(*metricsAddr, *stats)
	if err != nil {
		return err
	}
	defer flushStats()
	if reg != nil {
		enc.Instrument(reg)
	}
	arch := &dataset.ArchiveFile{Problem: file.Problem, Structure: file.Structure}
	var rawBytes, compBytes int
	for _, f := range fields {
		c, err := enc.CompressField(f, bound)
		if err != nil {
			return fmt.Errorf("compressing %s: %w", f.Name, err)
		}
		arch.Fields = append(arch.Fields, dataset.CompressedField{
			Name:      c.FieldName,
			Layout:    c.Layout.String(),
			Curve:     c.Curve,
			Codec:     c.Codec,
			BoundMode: bmode,
			BoundVal:  bval,
			NumValues: c.NumValues,
			Payload:   c.Payload,
		})
		rawBytes += c.NumValues * 8
		compBytes += len(c.Payload)
		fmt.Printf("  %-6s %9d values -> %8d bytes (ratio %.2f)\n",
			f.Name, c.NumValues, len(c.Payload), c.Ratio())
	}
	if err := dataset.SaveArchive(*out, arch); err != nil {
		return err
	}
	fmt.Printf("total: %d -> %d bytes, ratio %.2f -> %s\n",
		rawBytes, compBytes, float64(rawBytes)/float64(compBytes), *out)
	return nil
}

func cmdDecompress(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	in := fs.String("i", "", "input archive (required)")
	out := fs.String("o", "", "output checkpoint (required)")
	metricsAddr := fs.String("metricsaddr", "", "serve expvar + pprof telemetry on this address (e.g. localhost:6060)")
	stats := fs.Bool("stats", false, "dump a telemetry JSON snapshot to stderr when done")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("decompress: -i and -o are required")
	}
	arch, err := dataset.LoadArchive(*in)
	if err != nil {
		return err
	}
	dec, err := zmesh.NewDecoderFromStructure(arch.Structure)
	if err != nil {
		return err
	}
	reg, flushStats, err := setupTelemetry(*metricsAddr, *stats)
	if err != nil {
		return err
	}
	defer flushStats()
	if reg != nil {
		dec.Instrument(reg)
	}
	file := &dataset.CheckpointFile{Problem: arch.Problem, Structure: arch.Structure}
	for _, cf := range arch.Fields {
		layout, err := core.ParseLayout(cf.Layout)
		if err != nil {
			return err
		}
		f, err := dec.DecompressField(&zmesh.Compressed{
			FieldName: cf.Name,
			Layout:    layout,
			Curve:     cf.Curve,
			Codec:     cf.Codec,
			NumValues: cf.NumValues,
			Payload:   cf.Payload,
		})
		if err != nil {
			return fmt.Errorf("decompressing %s: %w", cf.Name, err)
		}
		file.Fields = append(file.Fields, dataset.FieldData{
			Name:   cf.Name,
			Levels: amr.LevelArrays(f),
		})
		fmt.Printf("  %-6s restored (%d values)\n", cf.Name, cf.NumValues)
	}
	if err := dataset.SaveCheckpoint(*out, file); err != nil {
		return err
	}
	fmt.Printf("restored %d quantities -> %s\n", len(file.Fields), *out)
	return nil
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "checkpoint or archive path (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("info: -i is required")
	}
	if ck, err := dataset.LoadCheckpoint(*in); err == nil && len(ck.Fields) > 0 && len(ck.Fields[0].Levels) > 0 {
		m, err := ck.Mesh()
		if err != nil {
			return err
		}
		fmt.Printf("checkpoint %s (problem %s)\n", *in, ck.Problem)
		fmt.Printf("  mesh: %d-D, block %d^d, %d levels, %d blocks (%d leaves)\n",
			m.Dims(), m.BlockSize(), m.MaxLevel()+1, m.NumBlocks(), m.NumLeaves())
		for _, f := range ck.Fields {
			n := 0
			for _, l := range f.Levels {
				n += len(l)
			}
			fmt.Printf("  field %-6s %d values\n", f.Name, n)
		}
		return nil
	}
	arch, err := dataset.LoadArchive(*in)
	if err != nil {
		return fmt.Errorf("%s is neither checkpoint nor archive: %w", *in, err)
	}
	fmt.Printf("archive %s (problem %s)\n", *in, arch.Problem)
	fmt.Printf("  tree metadata: %d bytes\n", len(arch.Structure))
	for _, f := range arch.Fields {
		fmt.Printf("  field %-6s codec=%s layout=%s/%s bound=%s:%g  %d values -> %d bytes (ratio %.2f)\n",
			f.Name, f.Codec, f.Layout, f.Curve, f.BoundMode, f.BoundVal,
			f.NumValues, len(f.Payload), float64(f.NumValues*8)/float64(len(f.Payload)))
	}
	return nil
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	orig := fs.String("orig", "", "original checkpoint (required)")
	recon := fs.String("recon", "", "reconstructed checkpoint (required)")
	rel := fs.Float64("rel", 0, "relative bound to check")
	abs := fs.Float64("abs", 0, "absolute bound to check")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *orig == "" || *recon == "" {
		return fmt.Errorf("verify: -orig and -recon are required")
	}
	bound, _, _, err := parseBound(*rel, *abs)
	if err != nil {
		return err
	}
	of, err := dataset.LoadCheckpoint(*orig)
	if err != nil {
		return err
	}
	rf, err := dataset.LoadCheckpoint(*recon)
	if err != nil {
		return err
	}
	failed := false
	for _, fo := range of.Fields {
		fr, ok := rf.Field(fo.Name)
		if !ok {
			return fmt.Errorf("field %s missing from reconstruction", fo.Name)
		}
		a := flatten(fo.Levels)
		b := flatten(fr.Levels)
		maxe, err := metrics.MaxAbsError(a, b)
		if err != nil {
			return fmt.Errorf("field %s: %w", fo.Name, err)
		}
		eb := bound.Absolute(a)
		psnr, err := metrics.PSNR(a, b)
		if err != nil {
			return err
		}
		status := "OK"
		if maxe > eb {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("  %-6s max err %.3e (bound %.3e)  PSNR %.1f dB  %s\n",
			fo.Name, maxe, eb, psnr, status)
	}
	if failed {
		return fmt.Errorf("bound violated")
	}
	fmt.Println("all fields within bound")
	return nil
}

func cmdRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	in := fs.String("i", "", "input checkpoint (required)")
	out := fs.String("o", "", "output PNG path (required)")
	field := fs.String("field", "dens", "quantity to render ('levels' renders the AMR level map)")
	width := fs.Int("width", 512, "image width in pixels")
	blocks := fs.Bool("blocks", false, "overlay leaf-block boundaries")
	logScale := fs.Bool("log", false, "log10 colour scale")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("render: -i and -o are required")
	}
	_, m, fields, err := loadFields(*in)
	if err != nil {
		return err
	}
	var img image.Image
	if *field == "levels" {
		img, err = render.LevelMap(m, *width)
	} else {
		var target *amr.Field
		for _, f := range fields {
			if f.Name == *field {
				target = f
				break
			}
		}
		if target == nil {
			return fmt.Errorf("render: field %q not in checkpoint", *field)
		}
		img, err = render.Field(target, render.Options{
			Width: *width, ShowBlocks: *blocks, Log: *logScale,
		})
	}
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := png.Encode(f, img); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("rendered %s -> %s (%dx%d)\n", *field, *out,
		img.Bounds().Dx(), img.Bounds().Dy())
	return nil
}

func flatten(levels [][]float64) []float64 {
	n := 0
	for _, l := range levels {
		n += len(l)
	}
	out := make([]float64, 0, n)
	for _, l := range levels {
		out = append(out, l...)
	}
	return out
}
