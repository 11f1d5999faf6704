package core

import (
	"testing"

	"repro/internal/amr"
)

// cellMeta decodes a stream position back to (level, global coords).
func cellMeta(m *amr.Mesh) []struct {
	level int
	coord [3]uint32
} {
	bs := m.BlockSize()
	kmax := 1
	if m.Dims() == 3 {
		kmax = bs
	}
	out := make([]struct {
		level int
		coord [3]uint32
	}, 0, m.NumBlocks()*m.CellsPerBlock())
	for level := 0; level <= m.MaxLevel(); level++ {
		for _, id := range m.SortedLevel(level) {
			for k := 0; k < kmax; k++ {
				for j := 0; j < bs; j++ {
					for i := 0; i < bs; i++ {
						out = append(out, struct {
							level int
							coord [3]uint32
						}{level, m.GlobalCellCoord(id, i, j, k)})
					}
				}
			}
		}
	}
	return out
}

// SFCWithinLevel must keep levels contiguous and in ascending order.
func TestSFCWithinLevelKeepsLevelsSeparate(t *testing.T) {
	m := randomMesh(t, 31, 2)
	r, err := BuildRecipe(m, SFCWithinLevel, "hilbert")
	if err != nil {
		t.Fatal(err)
	}
	info := cellMeta(m)
	prevLevel := -1
	for _, s := range r.Perm() {
		l := info[s].level
		if l < prevLevel {
			t.Fatalf("level %d after level %d: levels interleaved", l, prevLevel)
		}
		prevLevel = l
	}
}

// Within one level, the Hilbert within-level order must visit cells so
// consecutive same-level cells are lattice neighbours (the curve is
// continuous over the subset only where the subset is contiguous, so test
// on an unrefined mesh where the full lattice is present).
func TestSFCWithinLevelHilbertContinuityUniform(t *testing.T) {
	m, err := amr.NewMesh(2, 4, [3]int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := BuildRecipe(m, SFCWithinLevel, "hilbert")
	if err != nil {
		t.Fatal(err)
	}
	info := cellMeta(m)
	perm := r.Perm()
	for i := 1; i < len(perm); i++ {
		a := info[perm[i-1]].coord
		b := info[perm[i]].coord
		d := 0
		for k := 0; k < 2; k++ {
			if a[k] > b[k] {
				d += int(a[k] - b[k])
			} else {
				d += int(b[k] - a[k])
			}
		}
		if d != 1 {
			t.Fatalf("step %d: %v -> %v not a lattice neighbour", i, a, b)
		}
	}
}

// All layouts must agree on a single-block mesh (only one possible order
// up to within-block curve order differences: compare against themselves
// through apply/restore only).
func TestDegenerateSingleBlockMesh(t *testing.T) {
	m, err := amr.NewMesh(2, 2, [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, layout := range allLayouts() {
		r, err := BuildRecipe(m, layout, "hilbert")
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		if r.Len() != 4 {
			t.Fatalf("%v: len %d", layout, r.Len())
		}
		data := []float64{1, 2, 3, 4}
		ordered, err := r.Apply(data)
		if err != nil {
			t.Fatal(err)
		}
		back, err := r.Restore(ordered)
		if err != nil {
			t.Fatal(err)
		}
		for i := range data {
			if back[i] != data[i] {
				t.Fatalf("%v: round trip broke", layout)
			}
		}
	}
}

// Rectangular root grids (non-square domains) must work for every layout.
func TestRectangularRootGrid(t *testing.T) {
	m, err := amr.NewMesh(2, 4, [3]int{5, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Refine(m.Roots()[3]); err != nil {
		t.Fatal(err)
	}
	n := m.NumBlocks() * m.CellsPerBlock()
	for _, layout := range allLayouts() {
		for _, curve := range []string{"morton", "hilbert"} {
			r, err := BuildRecipe(m, layout, curve)
			if err != nil {
				t.Fatalf("%v/%s: %v", layout, curve, err)
			}
			seen := make([]bool, n)
			for _, s := range r.Perm() {
				if seen[s] {
					t.Fatalf("%v/%s: duplicate position", layout, curve)
				}
				seen[s] = true
			}
		}
	}
}

// The zMesh order of a deeper mesh must embed the order of geometry shared
// with a shallower mesh? Too strong; instead check determinism: building
// the same recipe twice yields identical permutations.
func TestRecipeDeterminism(t *testing.T) {
	m := randomMesh(t, 41, 3)
	a, err := BuildRecipe(m, ZMesh, "hilbert")
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildRecipe(m, ZMesh, "hilbert")
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Perm() {
		if a.Perm()[i] != b.Perm()[i] {
			t.Fatalf("recipes differ at %d", i)
		}
	}
}
