package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/amr"
)

// tacTestMeshes is the mesh zoo the TAC-specific tests run over: random
// refinement (ragged frontiers, partially-filled boxes) and ring/spherical
// fronts (the shock pattern TAC targets), in 2-D and 3-D.
func tacTestMeshes(t testing.TB) map[string]*amr.Mesh {
	t.Helper()
	return map[string]*amr.Mesh{
		"random2d": randomMesh(t, 101, 2),
		"random3d": randomMesh(t, 202, 3),
		"ring2d":   ringMesh(t, 2, 3),
		"ring3d":   ringMesh(t, 3, 3),
	}
}

// The TAC differential: the grid-based partition must reproduce the
// map-based serial oracle bit for bit — the permutation
// (already covered layout-generically by TestParallelBuildMatchesSerial) AND
// the plan: box extents, fill masks, cell counts, order. Any worker count
// must yield the identical plan.
func TestTACPlanMatchesSerial(t *testing.T) {
	for name, m := range tacTestMeshes(t) {
		want, err := buildRecipeSerial(m, TAC3D, "hilbert")
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		if want.TACPlan() == nil || len(want.TACPlan().Boxes) == 0 {
			t.Fatalf("%s: serial recipe has no plan", name)
		}
		for _, workers := range differentialWorkers {
			got, err := buildRecipeParallel(m, TAC3D, "hilbert", workers, nil)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			gp, wp := got.TACPlan(), want.TACPlan()
			if len(gp.Boxes) != len(wp.Boxes) {
				t.Fatalf("%s workers=%d: %d boxes, want %d", name, workers, len(gp.Boxes), len(wp.Boxes))
			}
			for i := range wp.Boxes {
				if !reflect.DeepEqual(gp.Boxes[i], wp.Boxes[i]) {
					t.Fatalf("%s workers=%d: box %d differs:\n got %+v\nwant %+v",
						name, workers, i, gp.Boxes[i], wp.Boxes[i])
				}
			}
			for i := range want.Perm() {
				if got.Perm()[i] != want.Perm()[i] {
					t.Fatalf("%s workers=%d: perm differs at %d", name, workers, i)
				}
			}
		}
	}
}

// Structural invariants of every TAC plan, checked against the partition
// spec: box sides within the cap, cell dims consistent with block extents,
// mask popcount consistent with NumCells, the fill threshold respected, and
// the boxes' real cells summing to exactly the mesh's cell count with the
// permutation grouped box by box.
func TestTACPlanInvariants(t *testing.T) {
	for name, m := range tacTestMeshes(t) {
		r, err := BuildRecipe(m, TAC3D, "hilbert")
		if err != nil {
			t.Fatal(err)
		}
		plan := r.TACPlan()
		if plan == nil {
			t.Fatalf("%s: no plan on TAC recipe", name)
		}
		bs := m.BlockSize()
		maxSide := tacMaxSideBlocks(bs)
		total, lastLevel := 0, 0
		for i, box := range plan.Boxes {
			if box.Level < lastLevel {
				t.Fatalf("%s: box %d level %d after level %d", name, i, box.Level, lastLevel)
			}
			lastLevel = box.Level
			for d := 0; d < 3; d++ {
				if box.Size[d] < 1 || box.Size[d] > maxSide {
					t.Fatalf("%s: box %d side %d = %d blocks (cap %d)", name, i, d, box.Size[d], maxSide)
				}
			}
			wantCD := [3]int{box.Size[0] * bs, box.Size[1] * bs, 1}
			if m.Dims() == 3 {
				wantCD[2] = box.Size[2] * bs
			}
			if box.CellDims != wantCD {
				t.Fatalf("%s: box %d cell dims %v, want %v", name, i, box.CellDims, wantCD)
			}
			if box.NumCells < 1 {
				t.Fatalf("%s: box %d holds no real cells", name, i)
			}
			// The greedy growth never dilutes a box below the fill floor.
			if box.NumCells*tacMinFillDen < box.Volume()*tacMinFillNum {
				t.Fatalf("%s: box %d fill %d/%d below %d/%d",
					name, i, box.NumCells, box.Volume(), tacMinFillNum, tacMinFillDen)
			}
			count := 0
			for idx := 0; idx < box.Volume(); idx++ {
				if box.Present(idx) {
					count++
				}
			}
			if count != box.NumCells {
				t.Fatalf("%s: box %d mask popcount %d, NumCells %d", name, i, count, box.NumCells)
			}
			if box.Mask != nil && len(box.Mask) != maskWords(box.Volume()) {
				t.Fatalf("%s: box %d mask is %d words, want %d",
					name, i, len(box.Mask), maskWords(box.Volume()))
			}
			total += box.NumCells
		}
		if total != r.Len() {
			t.Fatalf("%s: boxes hold %d cells, mesh has %d", name, total, r.Len())
		}
		// Box-by-box grouping: the cells of one box must all come from its
		// level's slice of the level-order stream.
		levelStart := make([]int32, m.MaxLevel()+2)
		pos := int32(0)
		for level := 0; level <= m.MaxLevel(); level++ {
			levelStart[level] = pos
			pos += int32(len(m.SortedLevel(level)) * m.CellsPerBlock())
		}
		levelStart[m.MaxLevel()+1] = pos
		off := 0
		for i, box := range plan.Boxes {
			for _, s := range r.Perm()[off : off+box.NumCells] {
				if s < levelStart[box.Level] || s >= levelStart[box.Level+1] {
					t.Fatalf("%s: box %d (level %d) emits level-order position %d outside its level",
						name, i, box.Level, s)
				}
			}
			off += box.NumCells
		}
	}
}

// Non-TAC recipes carry no plan; the accessor must be nil for them.
func TestTACPlanNilForOtherLayouts(t *testing.T) {
	m := randomMesh(t, 5, 2)
	for _, layout := range []Layout{LevelOrder, SFCWithinLevel, ZMesh} {
		r, err := BuildRecipe(m, layout, "hilbert")
		if err != nil {
			t.Fatal(err)
		}
		if r.TACPlan() != nil {
			t.Fatalf("%v recipe carries a TAC plan", layout)
		}
	}
}

// AutoLayout is a pseudo-layout: both builders must refuse it with
// ErrAutoLayout, and its name must round-trip through ParseLayout so wire
// parameters can request it.
func TestAutoLayoutRejectedByBuilders(t *testing.T) {
	m := randomMesh(t, 9, 2)
	if _, err := buildRecipeSerial(m, AutoLayout, "hilbert"); !errors.Is(err, ErrAutoLayout) {
		t.Fatalf("serial builder: got %v, want ErrAutoLayout", err)
	}
	if _, err := buildRecipeParallel(m, AutoLayout, "hilbert", 2, nil); !errors.Is(err, ErrAutoLayout) {
		t.Fatalf("parallel builder: got %v, want ErrAutoLayout", err)
	}
	got, err := ParseLayout(AutoLayout.String())
	if err != nil || got != AutoLayout {
		t.Fatalf("auto name round trip: %v %v", got, err)
	}
}

// FuzzTACPlanDifferential drives the plan differential from fuzzed
// (seed, dims) mesh shapes, letting the fuzzer search for refinement
// patterns where the grid-based partition and the map-based serial oracle
// disagree — the same role FuzzKernelDifferential plays for the
// gather/scatter kernels.
func FuzzTACPlanDifferential(f *testing.F) {
	f.Add(int64(1), false)
	f.Add(int64(2), true)
	f.Add(int64(101), false)
	f.Add(int64(202), true)
	f.Fuzz(func(t *testing.T, seed int64, threeD bool) {
		dims := 2
		if threeD {
			dims = 3
		}
		m := randomMesh(t, seed, dims)
		want, err := buildRecipeSerial(m, TAC3D, "hilbert")
		if err != nil {
			t.Fatalf("serial: %v", err)
		}
		for _, workers := range differentialWorkers {
			got, err := buildRecipeParallel(m, TAC3D, "hilbert", workers, nil)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			gp, wp := got.TACPlan(), want.TACPlan()
			if len(gp.Boxes) != len(wp.Boxes) {
				t.Fatalf("workers=%d: %d boxes, want %d", workers, len(gp.Boxes), len(wp.Boxes))
			}
			for i := range wp.Boxes {
				if !reflect.DeepEqual(gp.Boxes[i], wp.Boxes[i]) {
					t.Fatalf("workers=%d: box %d differs:\n got %+v\nwant %+v", workers, i, gp.Boxes[i], wp.Boxes[i])
				}
			}
			for i := range want.Perm() {
				if got.Perm()[i] != want.Perm()[i] {
					t.Fatalf("workers=%d: perm differs at %d", workers, i)
				}
			}
		}
	})
}
