package zmesh

import "testing"

func TestLevelPrefixCells(t *testing.T) {
	m := checkpoint(t).Mesh
	if m.MaxLevel() < 1 {
		t.Fatalf("sedov mesh did not refine (max level %d)", m.MaxLevel())
	}
	prev := 0
	for k := 1; k <= m.MaxLevel()+1; k++ {
		n, err := LevelPrefixCells(m, k)
		if err != nil {
			t.Fatal(err)
		}
		if n <= prev {
			t.Fatalf("prefix length not increasing: levels=%d gives %d after %d", k, n, prev)
		}
		prev = n
	}
	if full := m.NumBlocks() * m.CellsPerBlock(); prev != full {
		t.Fatalf("full prefix = %d cells, want whole stream %d", prev, full)
	}
	for _, k := range []int{0, -1, m.MaxLevel() + 2} {
		if _, err := LevelPrefixCells(m, k); err == nil {
			t.Errorf("LevelPrefixCells(levels=%d) succeeded, want error", k)
		}
	}
}

func TestReconstructPartialLevelsMonotone(t *testing.T) {
	// blast refines four levels deep and its level-prefix reconstructions
	// improve strictly at every step (see progressive.go for why that is an
	// empirical property of the data rather than an unconditional one). The
	// small solver run of the ratio golden keeps both properties.
	ck := ratioCheckpoint(t, "blast")
	m := ck.Mesh
	if m.MaxLevel() != 3 {
		t.Fatalf("blast mesh has max level %d, want 3", m.MaxLevel())
	}
	for _, f := range ck.Fields {
		stream := FieldValues(f)
		prevErr := -1.0
		for k := 1; k <= m.MaxLevel()+1; k++ {
			n, err := LevelPrefixCells(m, k)
			if err != nil {
				t.Fatal(err)
			}
			recon, err := ReconstructPartialLevels(m, f.Name, stream[:n], k)
			if err != nil {
				t.Fatal(err)
			}
			maxErr, err := MaxAbsError(f, recon)
			if err != nil {
				t.Fatal(err)
			}
			if prevErr >= 0 && maxErr >= prevErr {
				t.Fatalf("%s: error not strictly improving: levels=%d gives %g after %g", f.Name, k, maxErr, prevErr)
			}
			prevErr = maxErr
		}
		if prevErr != 0 {
			t.Fatalf("%s: full-prefix reconstruction error = %g, want exact", f.Name, prevErr)
		}
	}
}

func TestReconstructPartialLevelsLengthCheck(t *testing.T) {
	if _, err := ReconstructPartialLevels(checkpoint(t).Mesh, "x", []float64{1, 2, 3}, 1); err == nil {
		t.Fatal("short prefix accepted")
	}
}
