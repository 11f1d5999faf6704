// Package core implements zMesh, the paper's contribution: a level
// reordering for block-structured AMR data that groups points mapped to the
// same or adjacent geometric coordinates so the serialized stream is
// smoother and therefore more compressible by error-bounded lossy
// compressors.
//
// The reordering is described by a Recipe — a permutation between the
// application's native level-by-level layout and the zMesh layout. The
// recipe is a pure function of the mesh topology (the "chained tree"): it is
// rebuilt identically at decompression time from the AMR tree metadata the
// application already stores, so compressed payloads carry no permutation
// bytes at all.
package core

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/amr"
)

// Layout selects a serialization order for an AMR field.
type Layout int

// Layouts.
const (
	// LevelOrder is the application baseline: one array per level, blocks
	// row-major within the level, cells row-major within each block.
	LevelOrder Layout = iota
	// SFCWithinLevel orders each level's cells along a space-filling curve
	// but keeps levels separate — the "Z-ordering"/"Hilbert" baseline the
	// paper compares against.
	SFCWithinLevel
	// ZMesh is the paper's chained-tree order: a per-cell depth-first
	// descent of the refinement forest that emits each coarse cell
	// immediately before the 2^dims finer cells covering exactly its
	// geometric footprint, sub-cells and siblings ordered by the curve.
	// This groups points mapped to the same or adjacent coordinates.
	ZMesh
	// TAC3D is the TAC-style adaptive 3D block layout: each level's blocks
	// are greedily partitioned into compact padded boxes and serialized box
	// by box in 3D-local row-major order (see tac.go). A TAC3D recipe also
	// carries the box plan (Recipe.TACPlan), which the frame encoder uses to
	// compress every box as a dense multi-dimensional array.
	TAC3D
	// AutoLayout is the "let the encoder choose" pseudo-layout: the public
	// encoder replaces it with a concrete layout (zmesh.ResolveAuto) before
	// any recipe is built, so artifacts never record it. It has no
	// permutation of its own — building a recipe for it is an error.
	AutoLayout
)

// String implements fmt.Stringer.
func (l Layout) String() string {
	switch l {
	case LevelOrder:
		return "level"
	case SFCWithinLevel:
		return "sfc-level"
	case ZMesh:
		return "zmesh"
	case TAC3D:
		return "tac"
	case AutoLayout:
		return "auto"
	default:
		return fmt.Sprintf("layout(%d)", int(l))
	}
}

// ParseLayout parses a layout name as printed by String.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "level":
		return LevelOrder, nil
	case "sfc-level":
		return SFCWithinLevel, nil
	case "zmesh":
		return ZMesh, nil
	case "tac":
		return TAC3D, nil
	case "auto":
		return AutoLayout, nil
	}
	return 0, fmt.Errorf("core: unknown layout %q", s)
}

// Recipe is the restore recipe: a bijection between the level-order stream
// and a target layout for one mesh topology.
type Recipe struct {
	layout Layout
	curve  string
	n      int
	// perm[t] is the level-order position of the value at target position t.
	perm []int32
	// tac is the box decomposition backing a TAC3D permutation (nil for
	// every other layout); see TACPlan.
	tac *TACPlan

	// Kernel-safety validation state: the tuned gather/scatter kernels elide
	// the random-side bounds check (see kernel.go), which is sound only when
	// every perm entry lies in [0, n). Builders guarantee that by
	// construction; verifyOnce re-checks it once per recipe as defense in
	// depth, and a recipe that fails is refused by ApplyTo/RestoreTo.
	verifyOnce sync.Once
	unsafeOK   bool
}

// KernelTier reports which apply/restore kernel tier this binary was built
// with: "unsafe" (the default pointer-walking kernels) or "portable"
// (`-tags zmesh_portable`, the reference loops with no unsafe). The
// benchmark records it with every result, so runs of the two tiers are
// never compared as one.
func KernelTier() string {
	if kernelUnsafe {
		return "unsafe"
	}
	return "portable"
}

// Layout reports the recipe's target layout.
func (r *Recipe) Layout() Layout { return r.layout }

// Curve reports the sibling-ordering curve name.
func (r *Recipe) Curve() string { return r.curve }

// Len reports the number of points the recipe permutes.
func (r *Recipe) Len() int { return r.n }

// Perm exposes the raw permutation (target position → level-order
// position) for inspection; callers must not modify it.
func (r *Recipe) Perm() []int32 { return r.perm }

// Apply reorders a level-order stream into the recipe's layout.
func (r *Recipe) Apply(flat []float64) ([]float64, error) {
	return r.ApplyTo(nil, flat)
}

// ApplyTo is Apply with a caller-provided destination: dst is reused when its
// capacity suffices and allocated otherwise, so hot loops (worker pools,
// temporal streams) permute without a fresh slice per call. dst must not
// overlap flat.
//
// The permutation runs through the tuned gather kernel (kernel.go), which
// the tests hold bit-for-bit to the plain gather loop.
func (r *Recipe) ApplyTo(dst, flat []float64) ([]float64, error) {
	if len(flat) != r.n {
		return nil, fmt.Errorf("core: stream has %d values, recipe expects %d", len(flat), r.n)
	}
	out, err := r.sizeDst(dst, flat)
	if err != nil {
		return nil, err
	}
	if !r.kernelSafe() {
		return nil, fmt.Errorf("core: recipe permutation has out-of-range entries")
	}
	applyGather(out, flat, r.perm)
	return out, nil
}

// Restore inverts Apply.
func (r *Recipe) Restore(ordered []float64) ([]float64, error) {
	return r.RestoreTo(nil, ordered)
}

// RestoreTo is Restore with a caller-provided destination, with the same
// reuse contract as ApplyTo. dst must not overlap ordered.
//
// The permutation runs through the tuned scatter kernel (kernel.go), which
// the tests hold bit-for-bit to the plain scatter loop.
func (r *Recipe) RestoreTo(dst, ordered []float64) ([]float64, error) {
	if len(ordered) != r.n {
		return nil, fmt.Errorf("core: stream has %d values, recipe expects %d", len(ordered), r.n)
	}
	out, err := r.sizeDst(dst, ordered)
	if err != nil {
		return nil, err
	}
	if !r.kernelSafe() {
		return nil, fmt.Errorf("core: recipe permutation has out-of-range entries")
	}
	restoreScatter(out, ordered, r.perm)
	return out, nil
}

// kernelSafe reports whether the tuned kernels may elide the random-side
// bounds check for this recipe: every perm entry must lie in [0, n). The
// scan runs once per recipe (it is O(n), far cheaper than one permutation
// pass with checks) and the result is cached; builders always produce
// in-range permutations, so a false result indicates a corrupted recipe and
// turns every ApplyTo/RestoreTo into an error instead of an out-of-bounds
// access.
func (r *Recipe) kernelSafe() bool {
	r.verifyOnce.Do(func() {
		n := int32(r.n)
		for _, s := range r.perm {
			if s < 0 || s >= n {
				return
			}
		}
		r.unsafeOK = true
	})
	return r.unsafeOK
}

// sizeDst resizes dst to the recipe length, allocating only when the
// capacity falls short, and rejects a destination that aliases the source
// (a permutation cannot be computed in place).
func (r *Recipe) sizeDst(dst, src []float64) ([]float64, error) {
	if cap(dst) < r.n {
		return make([]float64, r.n), nil
	}
	dst = dst[:r.n]
	if r.n > 0 && len(src) > 0 && &dst[0] == &src[0] {
		return nil, fmt.Errorf("core: destination buffer aliases source")
	}
	return dst, nil
}

// MaxCells is the largest cell count a recipe can address: stream positions
// are stored as int32.
const MaxCells = math.MaxInt32

// CheckMeshSize reports whether a mesh of numBlocks blocks with
// cellsPerBlock cells each fits the recipe's int32 position space. Without
// this guard the level-order position accumulation would silently wrap and
// produce a corrupt permutation.
func CheckMeshSize(numBlocks, cellsPerBlock int) error {
	if numBlocks < 0 || cellsPerBlock <= 0 {
		return fmt.Errorf("core: invalid mesh size (%d blocks, %d cells/block)", numBlocks, cellsPerBlock)
	}
	if numBlocks > MaxCells/cellsPerBlock {
		return fmt.Errorf("core: mesh too large for recipe: %d blocks of %d cells exceed %d addressable positions",
			numBlocks, cellsPerBlock, int64(MaxCells))
	}
	return nil
}

// ceilLog2 returns the smallest b with 2^b >= v (v >= 1).
func ceilLog2(v int) uint {
	if v <= 1 {
		return 0
	}
	return uint(bits.Len(uint(v - 1)))
}

// BuildRecipe derives the restore recipe for the given layout and sibling
// curve ("morton", "hilbert" or "rowmajor") from the mesh topology alone.
// This is also the decompression path: a decoder rebuilds the recipe from
// the tree metadata (amr.MeshFromStructure), never from the payload.
// Construction fans disjoint spans out over GOMAXPROCS workers (parallel.go);
// the permutation does not depend on the worker count.
func BuildRecipe(m *amr.Mesh, layout Layout, curveName string) (*Recipe, error) {
	return buildRecipeParallel(m, layout, curveName, 0, nil)
}

// ErrAutoLayout is returned by the recipe builders when asked for
// AutoLayout: it is not a concrete serialization order. The encoder resolves
// it to a concrete layout when it is built and stamps that layout into every
// artifact, so a decoder that sees "auto" is being handed a request the
// protocol never produces — callers should surface this loudly (the zmeshd
// decompress endpoints turn it into a 400).
var ErrAutoLayout = fmt.Errorf("layout \"auto\" is resolved when an encoder is built and never names a concrete order; decode with the layout recorded in the artifact")
