package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/amr"
)

func randomMesh(t testing.TB, seed int64, dims int) *amr.Mesh {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m, err := amr.NewMesh(dims, 4, [3]int{2, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for _, id := range m.Leaves() {
			if m.Block(id).Level < 3 && rng.Float64() < 0.35 {
				if err := m.Refine(id); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return m
}

// allLayouts lists every concrete layout (AutoLayout is a pseudo-layout with
// no permutation and is tested separately in tac_test.go).
func allLayouts() []Layout { return []Layout{LevelOrder, SFCWithinLevel, ZMesh, TAC3D} }

func TestLayoutStringParse(t *testing.T) {
	for _, l := range allLayouts() {
		got, err := ParseLayout(l.String())
		if err != nil || got != l {
			t.Fatalf("round trip %v: %v %v", l, got, err)
		}
	}
	if _, err := ParseLayout("bogus"); err == nil {
		t.Fatal("bogus layout accepted")
	}
}

// Every recipe must be a bijection on the stream positions.
func TestRecipeIsPermutation(t *testing.T) {
	for _, dims := range []int{2, 3} {
		m := randomMesh(t, 42, dims)
		n := m.NumBlocks() * m.CellsPerBlock()
		for _, layout := range allLayouts() {
			for _, curve := range []string{"morton", "hilbert", "rowmajor"} {
				r, err := BuildRecipe(m, layout, curve)
				if err != nil {
					t.Fatalf("dims=%d %v/%s: %v", dims, layout, curve, err)
				}
				if r.Len() != n {
					t.Fatalf("dims=%d %v/%s: len %d, want %d", dims, layout, curve, r.Len(), n)
				}
				seen := make([]bool, n)
				for _, s := range r.Perm() {
					if s < 0 || int(s) >= n || seen[s] {
						t.Fatalf("dims=%d %v/%s: invalid permutation", dims, layout, curve)
					}
					seen[s] = true
				}
			}
		}
	}
}

func TestApplyRestoreRoundTrip(t *testing.T) {
	m := randomMesh(t, 7, 2)
	f := amr.NewField(m, "q")
	f.FillFunc(func(x, y, z float64) float64 { return math.Sin(9*x) + math.Cos(7*y) })
	flat := amr.Flatten(amr.LevelArrays(f))
	for _, layout := range allLayouts() {
		r, err := BuildRecipe(m, layout, "hilbert")
		if err != nil {
			t.Fatal(err)
		}
		ordered, err := r.Apply(flat)
		if err != nil {
			t.Fatal(err)
		}
		back, err := r.Restore(ordered)
		if err != nil {
			t.Fatal(err)
		}
		for i := range flat {
			if back[i] != flat[i] {
				t.Fatalf("%v: position %d: %v != %v", layout, i, back[i], flat[i])
			}
		}
	}
}

func TestApplyRejectsWrongLength(t *testing.T) {
	m := randomMesh(t, 7, 2)
	r, err := BuildRecipe(m, ZMesh, "morton")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Apply(make([]float64, r.Len()-1)); err == nil {
		t.Fatal("short stream accepted")
	}
	if _, err := r.Restore(make([]float64, r.Len()+1)); err == nil {
		t.Fatal("long stream accepted")
	}
}

func TestLevelOrderIsIdentity(t *testing.T) {
	m := randomMesh(t, 3, 2)
	r, err := BuildRecipe(m, LevelOrder, "morton")
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range r.Perm() {
		if int(s) != i {
			t.Fatalf("level order perm[%d] = %d", i, s)
		}
	}
}

// The defining zMesh property: a refined coarse cell is immediately followed
// in the stream by the 2^dims fine cells covering the same region.
func TestZMeshChainsParentToChildren(t *testing.T) {
	for _, dims := range []int{2, 3} {
		m := randomMesh(t, 11, dims)
		r, err := BuildRecipe(m, ZMesh, "morton")
		if err != nil {
			t.Fatal(err)
		}
		// Identify each stream position's (level, global coords).
		type cellInfo struct {
			level   int
			coord   [3]uint32
			refined bool
		}
		info := make([]cellInfo, 0, r.Len())
		bs := m.BlockSize()
		kmax := 1
		if dims == 3 {
			kmax = bs
		}
		for level := 0; level <= m.MaxLevel(); level++ {
			for _, id := range m.SortedLevel(level) {
				for k := 0; k < kmax; k++ {
					for j := 0; j < bs; j++ {
						for i := 0; i < bs; i++ {
							g := m.GlobalCellCoord(id, i, j, k)
							// Cell is refined iff the block holding its
							// first fine cell exists at level+1.
							bc := [3]int{int(g[0]) * 2 / bs, int(g[1]) * 2 / bs, int(g[2]) * 2 / bs}
							if dims == 2 {
								bc[2] = 0
							}
							_, refined := m.Lookup(level+1, bc)
							info = append(info, cellInfo{level, g, refined})
						}
					}
				}
			}
		}
		// Walk the zMesh order and check the chaining property.
		perm := r.Perm()
		checked := 0
		for t0 := 0; t0 < len(perm)-1; t0++ {
			c := info[perm[t0]]
			if !c.refined {
				continue
			}
			next := info[perm[t0+1]]
			if next.level != c.level+1 {
				t.Fatalf("dims=%d: refined cell followed by level %d cell, want %d",
					dims, next.level, c.level+1)
			}
			if next.coord[0]/2 != c.coord[0] || next.coord[1]/2 != c.coord[1] {
				t.Fatalf("dims=%d: fine cell %v does not cover coarse %v",
					dims, next.coord, c.coord)
			}
			checked++
		}
		if checked == 0 {
			t.Fatalf("dims=%d: no refined cells exercised", dims)
		}
	}
}

// The recipe must be reproducible from serialized topology alone — the
// zero-metadata-overhead property.
func TestRecipeFromStructureMatches(t *testing.T) {
	m := randomMesh(t, 23, 2)
	blob := m.Structure()
	for _, layout := range allLayouts() {
		for _, curve := range []string{"morton", "hilbert"} {
			want, err := BuildRecipe(m, layout, curve)
			if err != nil {
				t.Fatal(err)
			}
			mesh, err := amr.MeshFromStructure(blob)
			if err != nil {
				t.Fatal(err)
			}
			got, err := BuildRecipe(mesh, layout, curve)
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != want.Len() {
				t.Fatalf("%v/%s: lengths differ", layout, curve)
			}
			for i := range want.Perm() {
				if got.Perm()[i] != want.Perm()[i] {
					t.Fatalf("%v/%s: perm differs at %d", layout, curve, i)
				}
			}
		}
	}
}

func TestRecipeFromStructureRejectsGarbage(t *testing.T) {
	if _, err := amr.MeshFromStructure([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage structure accepted")
	}
}

func TestUnknownCurveRejected(t *testing.T) {
	m := randomMesh(t, 1, 2)
	if _, err := BuildRecipe(m, ZMesh, "peano"); err == nil {
		t.Fatal("unknown curve accepted")
	}
}

// totalVariation sums |x[i+1]-x[i]| — the smoothness metric (lower is
// smoother).
func totalVariation(x []float64) float64 {
	tv := 0.0
	for i := 1; i < len(x); i++ {
		tv += math.Abs(x[i] - x[i-1])
	}
	return tv
}

// The headline claim: on a refined dataset with localized features, the
// zMesh order is smoother than both the level order and the within-level
// SFC order.
func TestZMeshImprovesSmoothness(t *testing.T) {
	front := func(x, y, z float64) float64 {
		r := math.Hypot(x-0.5, y-0.5)
		return 1 / (1 + math.Exp((r-0.3)/0.01))
	}
	m, f, err := amr.BuildAdaptive(amr.BuildOptions{
		Dims: 2, BlockSize: 8, RootDims: [3]int{2, 2, 1},
		MaxDepth: 3, Threshold: 0.4,
	}, front)
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxLevel() < 2 {
		t.Fatal("dataset did not refine")
	}
	flat := amr.Flatten(amr.LevelArrays(f))
	tv := map[Layout]float64{}
	for _, layout := range allLayouts() {
		r, err := BuildRecipe(m, layout, "hilbert")
		if err != nil {
			t.Fatal(err)
		}
		ordered, err := r.Apply(flat)
		if err != nil {
			t.Fatal(err)
		}
		tv[layout] = totalVariation(ordered)
	}
	if tv[ZMesh] >= tv[LevelOrder] {
		t.Fatalf("zMesh TV %.3f not smoother than level order %.3f", tv[ZMesh], tv[LevelOrder])
	}
	if tv[SFCWithinLevel] >= tv[LevelOrder] {
		t.Fatalf("SFC-within-level TV %.3f not smoother than level order %.3f",
			tv[SFCWithinLevel], tv[LevelOrder])
	}
}

// property: Apply/Restore is lossless for arbitrary data on random meshes.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, layoutPick, curvePick uint8) bool {
		m := randomMesh(t, seed, 2)
		layout := allLayouts()[int(layoutPick)%len(allLayouts())]
		curve := []string{"morton", "hilbert", "rowmajor"}[curvePick%3]
		r, err := BuildRecipe(m, layout, curve)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0x5a5a))
		flat := make([]float64, r.Len())
		for i := range flat {
			flat[i] = rng.NormFloat64()
		}
		ordered, err := r.Apply(flat)
		if err != nil {
			return false
		}
		back, err := r.Restore(ordered)
		if err != nil {
			return false
		}
		for i := range flat {
			if back[i] != flat[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildRecipeZMesh(b *testing.B) {
	m := randomMesh(b, 99, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRecipe(m, ZMesh, "hilbert"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApply(b *testing.B) {
	m := randomMesh(b, 99, 2)
	r, err := BuildRecipe(m, ZMesh, "hilbert")
	if err != nil {
		b.Fatal(err)
	}
	flat := make([]float64, r.Len())
	b.SetBytes(int64(len(flat) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Apply(flat); err != nil {
			b.Fatal(err)
		}
	}
}
