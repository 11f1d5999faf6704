package core

import (
	"testing"

	"repro/internal/amr"
	"repro/internal/telemetry"
)

// TestBuildRecipeObserved asserts the observed builder (a) produces the
// identical permutation to the uninstrumented one and (b) populates every
// recipe stage metric for the layouts that exercise it.
func TestBuildRecipeObserved(t *testing.T) {
	m, err := amr.NewMesh(2, 4, [3]int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Refine(m.Roots()[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Refine(m.Roots()[3]); err != nil {
		t.Fatal(err)
	}
	for _, layout := range allLayouts() {
		reg := telemetry.NewRegistry()
		got, err := BuildRecipeObserved(m, layout, "hilbert", reg)
		if err != nil {
			t.Fatalf("%v: %v", layout, err)
		}
		want, err := buildRecipeParallel(m, layout, "hilbert", 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.perm) != len(want.perm) {
			t.Fatalf("%v: perm length %d vs %d", layout, len(got.perm), len(want.perm))
		}
		for i := range got.perm {
			if got.perm[i] != want.perm[i] {
				t.Fatalf("%v: perm[%d] = %d, want %d", layout, i, got.perm[i], want.perm[i])
			}
		}
		s := reg.Snapshot()
		if s.Counters[CounterRecipeBuilds] != 1 {
			t.Errorf("%v: builds = %d, want 1", layout, s.Counters[CounterRecipeBuilds])
		}
		if want := int64(m.NumBlocks() * m.CellsPerBlock()); s.Counters[CounterRecipeCells] != want {
			t.Errorf("%v: cells = %d, want %d", layout, s.Counters[CounterRecipeCells], want)
		}
		if s.Timers[StageRecipeSetup].Count == 0 {
			t.Errorf("%v: setup stage unobserved", layout)
		}
		switch layout {
		case SFCWithinLevel:
			if s.Timers[StageRecipeSort].Count == 0 || s.Timers[StageRecipeDescent].Count == 0 {
				t.Errorf("%v: sort/descent stages unobserved: %v", layout, s.Names())
			}
		case ZMesh:
			if s.Timers[StageRecipeSort].Count == 0 {
				t.Errorf("%v: root sort unobserved", layout)
			}
			if s.Timers[StageRecipeDescent].Count == 0 {
				t.Errorf("%v: descent unobserved", layout)
			}
		case TAC3D:
			if s.Timers[StageRecipeDescent].Count == 0 {
				t.Errorf("%v: partition and emission unobserved", layout)
			}
		}
	}
	// Nil registry must behave exactly like the uninstrumented entry point.
	if _, err := BuildRecipeObserved(m, ZMesh, "hilbert", nil); err != nil {
		t.Fatal(err)
	}
}
