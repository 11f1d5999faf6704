package main

import (
	"fmt"
	"time"

	zmesh "repro"
	"repro/internal/amr"
	"repro/internal/compress"
	"repro/internal/compress/container"
	"repro/internal/core"
)

// relBound is the error bound of every workload: 1e-4 of the value range.
var relBound = zmesh.RelBound(1e-4)

// checkBound is the point-wise check run on every decompress: each
// reconstructed value within the bound resolved against the original stream.
func checkBound(what string, orig, recon []float64, bound zmesh.Bound) error {
	if len(recon) != len(orig) {
		return fmt.Errorf("%s: %d values back, want %d", what, len(recon), len(orig))
	}
	abs := bound.Absolute(orig)
	for i, v := range orig {
		if d := v - recon[i]; d > abs || -d > abs {
			return fmt.Errorf("%s: value %d off by %g, bound %g", what, i, d, abs)
		}
	}
	return nil
}

// insitu is the paper's amortised in-situ case: one persistent encoder and
// decoder with the recipe cached, no network. A pass compresses three fields
// of big-3d and decompresses them again.
type insitu struct {
	checker
	ds      *dataset
	opt     zmesh.Options
	enc     *zmesh.Encoder
	dec     *zmesh.Decoder
	scratch zmesh.Scratch
	arts    []*zmesh.Compressed

	passC, passD samples // per pass: the compress half, the decompress half
	opC, opD     samples // per public call
	artBytes     int     // of one pass
	raw          int64

	// Traced runs only.
	reg     *zmesh.Registry
	recipe  *core.Recipe
	codec   compress.Compressor
	flat    []float64
	ordered []float64
	stage   map[string]samples
}

func (s *insitu) name() string    { return "insitu-3d" }
func (s *insitu) check() *checker { return &s.checker }
func (s *insitu) rawBytes() int64 { return s.raw }
func (s *insitu) close() error    { return nil }

func (s *insitu) reset() {
	s.passC, s.passD, s.opC, s.opD = nil, nil, nil, nil
}

func (s *insitu) opCostMs() float64 { return mean(s.opC) + mean(s.opD) }

func (s *insitu) setup(env *environment) error {
	sz := big3D
	if env.smoke {
		sz = tiny3D
	}
	ds, err := buildDataset(newBlast(env.seed), sz, 3)
	if err != nil {
		return err
	}
	s.ds = ds
	env.note("insitu-3d: %s, 3 fields, zmesh/hilbert/sz rel 1e-4", ds.describe(sz))
	s.opt = zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"}
	if s.enc, err = zmesh.NewEncoder(ds.mesh, s.opt); err != nil {
		return err
	}
	if s.dec, err = zmesh.NewDecoderFromStructure(ds.structure); err != nil {
		return err
	}
	s.arts = make([]*zmesh.Compressed, len(ds.values))
	if env.traced {
		s.reg = zmesh.NewRegistry()
		if s.recipe, err = core.BuildRecipe(ds.mesh, core.ZMesh, s.opt.Curve); err != nil {
			return err
		}
		if s.codec, err = compress.Get(s.opt.Codec); err != nil {
			return err
		}
		s.stage = make(map[string]samples)
	}
	// Warm-up: one untimed pass builds the decoder's recipe and grows the
	// scratch buffers.
	if err := s.pass(nil); err != nil {
		return err
	}
	s.reset()
	return nil
}

func (s *insitu) run(d time.Duration, tr *tracer) error {
	if tr != nil {
		s.enc.Instrument(s.reg)
		s.dec.Instrument(s.reg)
		defer s.enc.Instrument(nil)
		defer s.dec.Instrument(nil)
	}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		if err := s.pass(tr); err != nil {
			return err
		}
		if tr != nil {
			if err := s.replay(tr); err != nil {
				return err
			}
		}
	}
	return nil
}

// pass is three CompressValuesScratch calls, then three
// DecompressValuesScratch calls each followed by the untimed bound check.
func (s *insitu) pass(tr *tracer) error {
	var tc, td time.Duration
	s.artBytes = 0
	for i, vals := range s.ds.values {
		sp := tr.start("zmesh.CompressValues", tr.op(), -1)
		t0 := time.Now()
		art, err := s.enc.CompressValuesScratch(s.ds.names[i], vals, relBound, &s.scratch)
		dt := time.Since(t0)
		tr.end(sp)
		if err != nil {
			return err
		}
		s.arts[i] = art
		s.artBytes += len(art.Payload)
		s.opC.add(dt)
		tc += dt
	}
	for i, art := range s.arts {
		sp := tr.start("zmesh.DecompressValues", tr.op(), -1)
		t0 := time.Now()
		recon, err := s.dec.DecompressValuesScratch(art, &s.scratch)
		dt := time.Since(t0)
		tr.end(sp)
		if err == nil {
			err = checkBound(s.ds.names[i], s.ds.values[i], recon, relBound)
		}
		s.done(err)
		s.opD.add(dt)
		td += dt
	}
	s.passC.add(tc)
	s.passD.add(td)
	s.raw += 2 * int64(len(s.ds.values)) * int64(s.ds.rawBytes())
	return nil
}

// stageSample times fn as a child span of parent and files the duration
// under the stage's name.
func (s *insitu) stageSample(tr *tracer, name string, op, parent int, fn func() error) error {
	sp := tr.start(name, op, parent)
	t0 := time.Now()
	err := fn()
	dt := time.Since(t0)
	tr.end(sp)
	st := s.stage[name]
	st.add(dt)
	s.stage[name] = st
	return err
}

// replay runs the pipeline of one field stage by stage through the layers'
// own public functions, so each layer's time is a span of its own: flatten →
// gather → codec → wrap, then unwrap → codec → scatter.
func (s *insitu) replay(tr *tracer) error {
	for i, f := range s.ds.fields {
		op := tr.op()
		root := tr.start("replay.compress", op, -1)
		var payload, wrapped []byte
		err := s.stageSample(tr, "amr.flatten", op, root, func() error {
			s.flat = amr.AppendLevelOrder(s.flat[:0], f)
			return nil
		})
		if err == nil {
			err = s.stageSample(tr, "core.gather", op, root, func() (err error) {
				s.ordered, err = s.recipe.ApplyTo(s.ordered, s.flat)
				return err
			})
		}
		if err == nil {
			err = s.stageSample(tr, "compress.sz.compress", op, root, func() (err error) {
				payload, err = s.codec.Compress(s.ordered, []int{len(s.ordered)}, relBound)
				return err
			})
		}
		if err == nil {
			err = s.stageSample(tr, "compress.container.wrap", op, root, func() (err error) {
				wrapped, err = container.Wrap(s.opt.Codec, len(s.ordered), payload)
				return err
			})
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", s.ds.names[i], err)
		}

		op = tr.op()
		root = tr.start("replay.decompress", op, -1)
		var env container.Envelope
		var ordered []float64
		err = s.stageSample(tr, "compress.container.unwrap", op, root, func() (err error) {
			env, err = container.Unwrap(wrapped)
			return err
		})
		if err == nil {
			err = s.stageSample(tr, "compress.sz.decompress", op, root, func() (err error) {
				ordered, err = s.codec.Decompress(env.Payload)
				return err
			})
		}
		if err == nil {
			err = s.stageSample(tr, "core.scatter", op, root, func() (err error) {
				s.flat, err = s.recipe.RestoreTo(s.flat, ordered)
				return err
			})
		}
		tr.end(root)
		if err != nil {
			return fmt.Errorf("replaying %s: %w", s.ds.names[i], err)
		}
	}
	return nil
}

func (s *insitu) endToEnd(r *report) {
	fields := float64(len(s.ds.values))
	rawMB := fields * float64(s.ds.rawBytes()) / 1e6
	r.timing("compress_mbps", perMs(rawMB, s.passC))
	r.timing("decompress_mbps", perMs(rawMB, s.passD))
	r.set("ratio", fields*float64(s.ds.rawBytes())/float64(s.artBytes))
}

// perMs turns per-pass milliseconds into per-pass MB/s for mb megabytes.
func perMs(mb float64, ms samples) []float64 {
	out := make([]float64, len(ms))
	for i, t := range ms {
		out[i] = mb / (t / 1e3)
	}
	return out
}

func (s *insitu) layers(r *report) {
	med := func(name string) float64 { return median(s.stage[name]) }
	fieldMB := float64(s.ds.rawBytes()) / 1e6
	// Bytes moved by a gather or scatter are computed, not measured: 8 B read
	// and 8 B written per value plus the 4 B permutation index — 20 B/cell.
	// A big-3d field (6.8 MB) fits the sandbox's last-level cache, so these
	// are cache-resident numbers.
	movedMB := 20 * float64(s.ds.cells()) / 1e6
	r.timing("amr.flatten_ms", s.stage["amr.flatten"])
	r.set("core.gather_mbps", movedMB/(med("core.gather")/1e3))
	r.set("core.scatter_mbps", movedMB/(med("core.scatter")/1e3))
	r.set("compress.sz.compress_mbps", fieldMB/(med("compress.sz.compress")/1e3))
	r.set("compress.sz.decompress_mbps", fieldMB/(med("compress.sz.decompress")/1e3))
	r.timing("compress.container.wrap_us", scaled(s.stage["compress.container.wrap"], 1e3))
	r.timing("compress.container.unwrap_us", scaled(s.stage["compress.container.unwrap"], 1e3))

	compress, decompress := median(s.opC), median(s.opD)
	stages := med("core.gather") + med("compress.sz.compress") + med("compress.container.wrap")
	r.set("zmesh.glue_share", 1-stages/compress)
	r.set("core.gather_share", (med("core.gather")+med("core.scatter"))/(compress+decompress))
	r.set("compress.codec_share", (med("compress.sz.compress")+med("compress.sz.decompress"))/(compress+decompress))
}

func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}
