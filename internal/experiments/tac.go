package experiments

import (
	"fmt"

	zmesh "repro"
	"repro/internal/core"
	"repro/internal/sim"
)

// StaticLayouts are the concrete layouts auto is measured against — T16's
// columns and the ratio golden's auto-vs-best check.
var StaticLayouts = []core.Layout{core.LevelOrder, core.SFCWithinLevel, core.ZMesh, core.TAC3D}

// TACComparison (T16) places the 1-D orders against the TAC-style adaptive
// 3-D box layout on the shock-dominated datasets, through the full public
// pipeline (real artifacts, container envelope included), and scores the
// auto rule: per codec, the layout zmesh.ResolveAuto names and that
// layout's ratio over the best candidate's. The 2-D problems measure TAC's
// in-plane neighborhoods; the genuine 3-D Sedov solve is where the dense
// boxes gain a third predictive axis and the 1-D walk loses the most
// locality.
func (s *Suite) TACComparison() (*Table, error) {
	const eb = 1e-3
	codecs := []string{"sz", "zfp"}
	t := &Table{
		Title:  "T16 — 1-D orders vs TAC adaptive boxes, and the auto rule (rel 1e-3, full artifacts)",
		Header: []string{"dataset", "field"},
	}
	for _, codec := range codecs {
		for _, layout := range StaticLayouts {
			t.Header = append(t.Header, codec+" "+layout.String())
		}
		t.Header = append(t.Header, codec+" pick", codec+" pick/best")
	}
	type job struct {
		name string
		ck   *sim.Checkpoint
	}
	var jobs []job
	for _, p := range s.Cfg.Problems {
		ck, err := s.Checkpoint(p)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, job{p, ck})
	}
	// The 3-D hierarchy, scaled exactly like F10 so the two tables describe
	// the same dataset.
	depth := s.Cfg.MaxDepth - 1
	if depth < 2 {
		depth = 2
	}
	res3 := s.Cfg.Resolution / 4
	if res3 < 24 {
		res3 = 24
	}
	ck3, err := sim.GenerateCheckpoint3D("sedov3d", res3, sim.Analytic3DOptions{
		BlockSize: s.Cfg.BlockSize,
		RootDims:  [3]int{2, 2, 2},
		MaxDepth:  depth,
		Threshold: s.Cfg.Threshold,
	})
	if err != nil {
		return nil, err
	}
	jobs = append(jobs, job{"sedov3d", ck3})

	bound := zmesh.RelBound(eb)
	for _, j := range jobs {
		// One encoder per (layout, codec), shared by the job's fields — the
		// recipe amortization the library is built around.
		encs := map[[2]string]*zmesh.Encoder{}
		for _, codec := range codecs {
			for _, layout := range StaticLayouts {
				enc, err := zmesh.NewEncoder(j.ck.Mesh, zmesh.Options{Layout: layout, Curve: "hilbert", Codec: codec})
				if err != nil {
					return nil, err
				}
				encs[[2]string{codec, layout.String()}] = enc
			}
		}
		fields := s.Cfg.Fields
		if j.name == "sedov3d" {
			fields = nil
			for _, f := range j.ck.Fields {
				fields = append(fields, f.Name)
			}
		}
		for _, fn := range fields {
			f, ok := j.ck.Field(fn)
			if !ok {
				return nil, fmt.Errorf("experiments: field %q missing from %s", fn, j.name)
			}
			row := []string{j.name, fn}
			for _, codec := range codecs {
				// An auto encoder IS the resolved layout's encoder, so the
				// rule's ratio is that column's ratio.
				pick := zmesh.ResolveAuto(j.ck.Mesh.Dims(), codec)
				var best, picked float64
				for _, layout := range StaticLayouts {
					c, err := encs[[2]string{codec, layout.String()}].CompressField(f, bound)
					if err != nil {
						return nil, err
					}
					r := c.Ratio()
					row = append(row, fmt.Sprintf("%.2f", r))
					if r > best {
						best = r
					}
					if layout == pick {
						picked = r
					}
				}
				row = append(row, pick.String(), fmt.Sprintf("%.2f", picked/best))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	t.Notes = append(t.Notes,
		"tac compresses each level as compact padded 2-D/3-D boxes with the dims-aware codec; "+
			"ratios are full artifacts (box table + container envelope included)",
		"pick = zmesh.ResolveAuto(mesh dims, codec), the layout a LayoutAuto encoder uses; "+
			"pick/best = its ratio over the best of the four candidates in that row")
	return t, nil
}
