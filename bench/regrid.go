package main

import (
	"fmt"
	"math"
	"time"

	zmesh "repro"
	"repro/internal/core"
)

// regridSteps is how many pre-built hierarchies the moving front cycles
// through.
const regridSteps = 8

var regridCodecs = []string{"sz", "zfp"}

// regrid uses core the other way round from insitu: the front moves every
// pass, so each pass builds new LayoutAuto encoders (every candidate recipe)
// and new decoders from structure bytes — recipe build, structure decode, the
// picker, the zTAC frame and zfp are all on the critical path.
type regrid struct {
	checker
	sets    [][]*dataset // [step][size]: small-2d and mid-3d per step
	scratch zmesh.Scratch
	step    int

	passC, passD samples // MB/s per pass
	opC, opD     samples // ms per public call (encoder/decoder builds included)
	ratio0       float64 // raw ÷ artifact bytes of step 0, the exact-repeat ratio
	raw          int64
}

func (s *regrid) name() string    { return "regrid-auto" }
func (s *regrid) check() *checker { return &s.checker }
func (s *regrid) rawBytes() int64 { return s.raw }
func (s *regrid) close() error    { return nil }
func (s *regrid) reset()          { s.passC, s.passD, s.opC, s.opD = nil, nil, nil, nil }

func (s *regrid) opCostMs() float64 { return mean(s.opC) + mean(s.opD) }

func (s *regrid) setup(env *environment) error {
	sizes := []size{small2D, mid3D}
	steps := regridSteps
	if env.smoke {
		sizes = []size{small2D, tiny3D}
		steps = 2
	}
	b := newBlast(env.seed)
	s.sets = make([][]*dataset, steps)
	for _, sz := range sizes {
		path, err := movingFront(b, sz, steps, 3)
		if err != nil {
			return err
		}
		for step, ds := range path {
			s.sets[step] = append(s.sets[step], ds)
		}
		env.note("regrid-auto: %d hierarchies from %s, 3 fields, auto layout under sz and zfp", steps, path[0].describe(sz))
	}
	// Warm-up on step 0, which also yields the exact-repeat ratio.
	if err := s.pass(nil); err != nil {
		return err
	}
	s.reset()
	s.step = 1 % steps
	return nil
}

func (s *regrid) run(d time.Duration, tr *tracer) error {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		if err := s.pass(tr); err != nil {
			return err
		}
		s.step = (s.step + 1) % len(s.sets)
	}
	return nil
}

// pass handles one regrid step: per hierarchy and codec, a new LayoutAuto
// encoder compresses the three fields, then a new decoder built from the
// structure bytes decompresses them; each decompress is bound-checked.
func (s *regrid) pass(tr *tracer) error {
	var tc, td time.Duration
	var raw, art int
	for _, ds := range s.sets[s.step] {
		for _, codec := range regridCodecs {
			opt := zmesh.Options{Layout: zmesh.LayoutAuto, Curve: "hilbert", Codec: codec}
			arts := make([]*zmesh.Compressed, len(ds.values))

			sp := tr.start("zmesh.NewEncoder(auto)", tr.op(), -1)
			t0 := time.Now()
			enc, err := zmesh.NewEncoder(ds.mesh, opt)
			dt := time.Since(t0)
			tr.end(sp)
			if err != nil {
				return err
			}
			s.opC.add(dt)
			tc += dt
			for i, vals := range ds.values {
				sp := tr.start("zmesh.CompressValues(auto)", tr.op(), -1)
				t0 := time.Now()
				arts[i], err = enc.CompressValuesScratch(ds.names[i], vals, relBound, &s.scratch)
				dt := time.Since(t0)
				tr.end(sp)
				if err != nil {
					return err
				}
				s.opC.add(dt)
				tc += dt
				raw += ds.rawBytes()
				art += len(arts[i].Payload)
			}

			sp = tr.start("zmesh.NewDecoderFromStructure", tr.op(), -1)
			t0 = time.Now()
			dec, err := zmesh.NewDecoderFromStructure(ds.structure)
			dt = time.Since(t0)
			tr.end(sp)
			if err != nil {
				return err
			}
			s.opD.add(dt)
			td += dt
			for i, a := range arts {
				sp := tr.start("zmesh.DecompressValues(auto)", tr.op(), -1)
				t0 := time.Now()
				recon, err := dec.DecompressValuesScratch(a, &s.scratch)
				dt := time.Since(t0)
				tr.end(sp)
				if err == nil {
					err = checkBound(fmt.Sprintf("%s/%s step %d", ds.names[i], codec, s.step), ds.values[i], recon, relBound)
				}
				s.done(err)
				s.opD.add(dt)
				td += dt
			}
		}
	}
	s.passC = append(s.passC, float64(raw)/1e6/tc.Seconds())
	s.passD = append(s.passD, float64(raw)/1e6/td.Seconds())
	s.raw += 2 * int64(raw)
	if s.step == 0 {
		s.ratio0 = float64(raw) / float64(art)
	}
	return nil
}

func (s *regrid) endToEnd(r *report) {
	r.timing("compress_mbps", s.passC)
	r.timing("decompress_mbps", s.passD)
	r.set("ratio", s.ratio0)
}

// probe takes the regrid-side layer numbers on the mid-3d hierarchy of step
// 0 with direct calls: recipe builds, structure decode, what the picker
// costs and what it loses, and TAC throughput.
func (s *regrid) probe(budget time.Duration, r *report) error {
	ds := s.sets[0][len(s.sets[0])-1]
	each := budget / 4

	var err error
	r.timing("core.recipe_build_ms.zmesh", timeFor(each, func() {
		if _, e := core.BuildRecipe(ds.mesh, core.ZMesh, "hilbert"); e != nil {
			err = e
		}
	}))
	r.timing("core.recipe_build_ms.tac", timeFor(each, func() {
		if _, e := core.BuildRecipe(ds.mesh, core.TAC3D, "hilbert"); e != nil {
			err = e
		}
	}))
	r.timing("core.structure_decode_ms", timeFor(each, func() {
		if _, e := zmesh.NewDecoderFromStructure(ds.structure); e != nil {
			err = e
		}
	}))
	if err != nil {
		return err
	}

	// The picker against every static candidate, on the same fields.
	candidates := []zmesh.Layout{zmesh.LayoutLevel, zmesh.LayoutSFC, zmesh.LayoutZMesh, zmesh.LayoutTAC}
	var tacMs samples
	var autoTime, stampedTime time.Duration // over the same (field, codec) set, best of reps
	var autoBytes int
	staticBytes := make([]int, len(candidates))
	reps := 3
	for _, codec := range regridCodecs {
		auto, err := zmesh.NewEncoder(ds.mesh, zmesh.Options{Layout: zmesh.LayoutAuto, Curve: "hilbert", Codec: codec})
		if err != nil {
			return err
		}
		static := make([]*zmesh.Encoder, len(candidates))
		for i, l := range candidates {
			if static[i], err = zmesh.NewEncoder(ds.mesh, zmesh.Options{Layout: l, Curve: "hilbert", Codec: codec}); err != nil {
				return err
			}
		}
		for f, vals := range ds.values {
			var stamped zmesh.Layout
			best := time.Duration(math.MaxInt64)
			for rep := 0; rep < reps; rep++ {
				t0 := time.Now()
				a, err := auto.CompressValuesScratch(ds.names[f], vals, relBound, &s.scratch)
				if err != nil {
					return err
				}
				best = min(best, time.Since(t0))
				stamped = a.Layout
				if rep == 0 {
					autoBytes += len(a.Payload)
				}
			}
			autoTime += best
			for i, l := range candidates {
				best := time.Duration(math.MaxInt64)
				for rep := 0; rep < reps; rep++ {
					if rep > 0 && l != stamped && l != zmesh.LayoutTAC {
						break // only sizes are needed from the other candidates
					}
					t0 := time.Now()
					a, err := static[i].CompressValuesScratch(ds.names[f], vals, relBound, &s.scratch)
					if err != nil {
						return err
					}
					dt := time.Since(t0)
					best = min(best, dt)
					if l == zmesh.LayoutTAC {
						tacMs.add(dt)
					}
					if rep == 0 {
						staticBytes[i] += len(a.Payload)
					}
				}
				if l == stamped {
					stampedTime += best
				}
			}
		}
	}
	r.set("zmesh.auto_overhead_share", float64(autoTime-stampedTime)/float64(autoTime))
	best := staticBytes[0]
	for _, b := range staticBytes[1:] {
		if b < best {
			best = b
		}
	}
	// Both ratios share the raw size, so best static ratio ÷ auto ratio is
	// auto bytes ÷ best static bytes; above 1 the picker lost.
	r.set("zmesh.auto_regret", float64(autoBytes)/float64(best))
	r.set("zmesh.tac_compress_mbps", float64(ds.rawBytes())/1e6/(median(tacMs)/1e3))
	return nil
}
