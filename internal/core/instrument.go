package core

import (
	"time"

	"repro/internal/amr"
	"repro/internal/telemetry"
)

// Recipe-construction stage names, as they appear in a telemetry Registry.
// Timers accumulate per-worker wall time, so on a parallel build the stage
// totals sum to roughly builders × elapsed, not elapsed.
const (
	// StageRecipeSetup covers topology scanning and span partitioning: the
	// level/blockBase prefix sums plus the subtree-size walk that carves the
	// output permutation into disjoint spans.
	StageRecipeSetup = "recipe.setup"
	// StageRecipeSort covers the LSD radix sorts: the root-lattice curve
	// order and each level's curve-key sort (SFCWithinLevel).
	StageRecipeSort = "recipe.sort"
	// StageRecipeDescent covers span emission: the chained-tree descent
	// (ZMesh), the per-level curve-key generation (SFCWithinLevel), or each
	// level's box partition and emission (TAC3D).
	StageRecipeDescent = "recipe.descent"

	// CounterRecipeBuilds counts completed recipe constructions.
	CounterRecipeBuilds = "recipe.builds"
	// CounterRecipeCells counts permutation entries produced.
	CounterRecipeCells = "recipe.cells"
)

// recipeMetrics holds the pre-resolved metrics of one observed build. A nil
// *recipeMetrics (the BuildRecipe path) disables instrumentation entirely:
// the builder pays one nil check per stage.
type recipeMetrics struct {
	setup   *telemetry.Timer
	sort    *telemetry.Timer
	descent *telemetry.Timer
	builds  *telemetry.Counter
	cells   *telemetry.Counter
}

func newRecipeMetrics(reg *telemetry.Registry) *recipeMetrics {
	if reg == nil {
		return nil
	}
	return &recipeMetrics{
		setup:   reg.Timer(StageRecipeSetup),
		sort:    reg.Timer(StageRecipeSort),
		descent: reg.Timer(StageRecipeDescent),
		builds:  reg.Counter(CounterRecipeBuilds),
		cells:   reg.Counter(CounterRecipeCells),
	}
}

// BuildRecipeObserved is BuildRecipe with per-stage telemetry: span
// partitioning, radix sorts and the descent record into reg's recipe.*
// timers and counters. A nil reg makes it identical to BuildRecipe. The
// permutation produced is bit-for-bit the same with or without
// instrumentation.
func BuildRecipeObserved(m *amr.Mesh, layout Layout, curveName string, reg *telemetry.Registry) (*Recipe, error) {
	return buildRecipeParallel(m, layout, curveName, 0, newRecipeMetrics(reg))
}

// now returns the stage clock when instrumented; the zero Time otherwise.
// Keeping the time.Now call behind the nil check keeps the uninstrumented
// builder free of clock reads.
func (rm *recipeMetrics) now() time.Time {
	if rm == nil {
		return time.Time{}
	}
	return time.Now()
}
