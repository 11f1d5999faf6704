package experiments

import (
	"strconv"
	"testing"

	"repro/internal/sim"
)

func TestThreeDExperiment(t *testing.T) {
	s := quickSuite()
	tbl, err := s.ThreeD()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 15 { // 5 quantities x 3 layouts
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	// zMesh rows must show positive smoothness improvement on the 3-D
	// spherical front for the dens field.
	for _, row := range tbl.Rows {
		if row[0] == "dens" && row[1] == "zmesh/hilbert" {
			var imp float64
			if _, err := fmtSscan(row[2], &imp); err != nil {
				t.Fatal(err)
			}
			if imp <= 0 {
				t.Fatalf("3-D zmesh smoothness improvement %v not positive", imp)
			}
		}
	}
}

func TestCodecComparison(t *testing.T) {
	s := quickSuite()
	tbl, err := s.CodecComparison()
	if err != nil {
		t.Fatal(err)
	}
	// Columns: dataset, field, then (level, zmesh) pairs for gzip, zfp, sz.
	// SZ must clear the lossless floor comfortably at the 1e-3
	// bound; ZFP's fixed-rate-ish coding can dip near it on tiny,
	// repetition-heavy checkpoints, so only sanity-check it is positive.
	for _, row := range tbl.Rows {
		gz, _ := strconv.ParseFloat(row[2], 64)
		zfp, _ := strconv.ParseFloat(row[4], 64)
		sz, _ := strconv.ParseFloat(row[6], 64)
		if len(row) != 8 || sz <= gz {
			t.Fatalf("SZ below lossless floor: %v", row)
		}
		if zfp <= 1 || gz <= 1 {
			t.Fatalf("degenerate ratios: %v", row)
		}
	}
}

func TestLocalityDiagnostic(t *testing.T) {
	s := quickSuite()
	tbl, err := s.Locality()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		lvl, _ := strconv.ParseFloat(row[1], 64)
		zm, _ := strconv.ParseFloat(row[3], 64)
		if zm >= lvl {
			t.Fatalf("zMesh mean jump %v not below level order %v", zm, lvl)
		}
	}
}

func TestUniformGridExperiment(t *testing.T) {
	s := quickSuite()
	tbl, err := s.UniformGrid()
	if err != nil {
		t.Fatal(err)
	}
	// Columns: dataset, field, sz1d, sz2d, zfp2d. On a smooth 2-D
	// grid the prediction-based codec must beat the transform codec.
	for _, row := range tbl.Rows {
		sz2, _ := strconv.ParseFloat(row[3], 64)
		zfp2, _ := strconv.ParseFloat(row[4], 64)
		if len(row) != 5 || sz2 <= zfp2 {
			t.Fatalf("sz 2-D does not beat zfp 2-D: %v", row)
		}
	}
}

func TestGenerate3DStructure(t *testing.T) {
	ck, err := sim.Generate3D(sim.Analytic3DOptions{
		BlockSize: 4, RootDims: [3]int{2, 2, 2}, MaxDepth: 2, Threshold: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ck.Mesh.Dims() != 3 {
		t.Fatalf("dims %d", ck.Mesh.Dims())
	}
	if ck.Mesh.MaxLevel() < 1 {
		t.Fatal("3-D front did not refine")
	}
	if len(ck.Fields) != 3 {
		t.Fatalf("%d fields", len(ck.Fields))
	}
}
