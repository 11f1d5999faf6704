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
	"sort"
	"sync"

	"repro/internal/amr"
	"repro/internal/sfc"
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
// The permutation runs through the tuned gather kernel (kernel.go):
// bit-for-bit identical to ApplyToSerial, just faster.
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

// ApplyToSerial is the straightforward reference gather loop, retained (like
// BuildRecipeSerial) as the differential oracle for the unsafe kernel. Not
// on the hot path.
func (r *Recipe) ApplyToSerial(dst, flat []float64) ([]float64, error) {
	if len(flat) != r.n {
		return nil, fmt.Errorf("core: stream has %d values, recipe expects %d", len(flat), r.n)
	}
	out, err := r.sizeDst(dst, flat)
	if err != nil {
		return nil, err
	}
	gatherSerial(out, flat, r.perm)
	return out, nil
}

// Restore inverts Apply.
func (r *Recipe) Restore(ordered []float64) ([]float64, error) {
	return r.RestoreTo(nil, ordered)
}

// RestoreTo is Restore with a caller-provided destination, with the same
// reuse contract as ApplyTo. dst must not overlap ordered.
//
// The permutation runs through the tuned scatter kernel (kernel.go):
// bit-for-bit identical to RestoreToSerial, just faster.
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

// RestoreToSerial is the straightforward reference scatter loop — the
// differential oracle for the unsafe kernel, mirroring ApplyToSerial.
func (r *Recipe) RestoreToSerial(dst, ordered []float64) ([]float64, error) {
	if len(ordered) != r.n {
		return nil, fmt.Errorf("core: stream has %d values, recipe expects %d", len(ordered), r.n)
	}
	out, err := r.sizeDst(dst, ordered)
	if err != nil {
		return nil, err
	}
	scatterSerial(out, ordered, r.perm)
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

// builder carries the traversal state of the serial reference
// implementation. It is retained verbatim (append-based emission, comparator
// sort) as the differential oracle for the span-based parallel builder in
// parallel.go: the two share no emission or sorting code, so bit-for-bit
// permutation equality between them is a meaningful check.
type builder struct {
	m     *amr.Mesh
	curve sfc.Curve
	// levelOffset[l] is the position of level l's first value in the
	// level-order stream; blockBase[id] the position of a block's first cell.
	blockBase []int32
	perm      []int32
	cpb       int
	bs        int
	kmax      int
}

func newBuilder(m *amr.Mesh, curveName string) (*builder, error) {
	curve, err := sfc.New(curveName, m.Dims())
	if err != nil {
		return nil, err
	}
	if err := CheckMeshSize(m.NumBlocks(), m.CellsPerBlock()); err != nil {
		return nil, err
	}
	b := &builder{
		m:     m,
		curve: curve,
		cpb:   m.CellsPerBlock(),
		bs:    m.BlockSize(),
		kmax:  1,
	}
	if m.Dims() == 3 {
		b.kmax = b.bs
	}
	// Level-order base position for every block.
	b.blockBase = make([]int32, m.NumBlocks())
	pos := int32(0)
	for level := 0; level <= m.MaxLevel(); level++ {
		for _, id := range m.SortedLevel(level) {
			b.blockBase[id] = pos
			pos += int32(b.cpb)
		}
	}
	b.perm = make([]int32, 0, pos)
	return b, nil
}

// cellPos is the level-order stream position of cell (i,j,k) of a block.
func (b *builder) cellPos(id amr.BlockID, i, j, k int) int32 {
	off := j*b.bs + i
	if b.m.Dims() == 3 {
		off = (k*b.bs+j)*b.bs + i
	}
	return b.blockBase[id] + int32(off)
}

// BuildRecipe derives the restore recipe for the given layout and sibling
// curve ("morton", "hilbert" or "rowmajor") from the mesh topology alone.
// Construction is parallel (see BuildRecipeParallel); the permutation it
// produces is bit-for-bit identical to BuildRecipeSerial's.
func BuildRecipe(m *amr.Mesh, layout Layout, curveName string) (*Recipe, error) {
	return BuildRecipeParallel(m, layout, curveName, 0)
}

// BuildRecipeSerial is the single-threaded reference builder: a recursive
// descent appending to one slice, ordering curve keys with a comparison
// sort. It exists as the differential oracle for BuildRecipeParallel and is
// not on the hot path.
func BuildRecipeSerial(m *amr.Mesh, layout Layout, curveName string) (*Recipe, error) {
	b, err := newBuilder(m, curveName)
	if err != nil {
		return nil, err
	}
	var plan *TACPlan
	switch layout {
	case LevelOrder:
		b.buildLevelOrder()
	case SFCWithinLevel:
		b.buildSFCWithinLevel()
	case ZMesh:
		b.buildZMeshCells()
	case TAC3D:
		if plan, err = b.buildTAC(); err != nil {
			return nil, err
		}
	case AutoLayout:
		return nil, fmt.Errorf("core: %w", ErrAutoLayout)
	default:
		return nil, fmt.Errorf("core: unknown layout %v", layout)
	}
	n := m.NumBlocks() * m.CellsPerBlock()
	if len(b.perm) != n {
		return nil, fmt.Errorf("core: traversal emitted %d of %d cells", len(b.perm), n)
	}
	return &Recipe{layout: layout, curve: curveName, n: n, perm: b.perm, tac: plan}, nil
}

// ErrAutoLayout is returned by the recipe builders when asked for
// AutoLayout: it is not a concrete serialization order. The encoder resolves
// it to a concrete layout when it is built and stamps that layout into every
// artifact, so a decoder that sees "auto" is being handed a request the
// protocol never produces — callers should surface this loudly (the zmeshd
// decompress endpoints turn it into a 400).
var ErrAutoLayout = fmt.Errorf("layout \"auto\" is resolved when an encoder is built and never names a concrete order; decode with the layout recorded in the artifact")

// RecipeFromStructure rebuilds the recipe from serialized AMR tree metadata
// (amr.Mesh.Structure). This is the decompression path: the permutation is
// reconstructed from topology, never read from the compressed payload.
func RecipeFromStructure(structure []byte, layout Layout, curveName string) (*Recipe, error) {
	m, err := amr.MeshFromStructure(structure)
	if err != nil {
		return nil, err
	}
	return BuildRecipe(m, layout, curveName)
}

// buildLevelOrder emits the identity permutation (useful as a uniform code
// path for the baseline).
func (b *builder) buildLevelOrder() {
	n := int32(b.m.NumBlocks() * b.cpb)
	for p := int32(0); p < n; p++ {
		b.perm = append(b.perm, p)
	}
}

// buildSFCWithinLevel orders each level's cells by the curve index of their
// global cell coordinates, levels kept separate.
func (b *builder) buildSFCWithinLevel() {
	m := b.m
	for level := 0; level <= m.MaxLevel(); level++ {
		cellDims := m.LevelCellDims(level)
		maxDim := cellDims[0]
		for d := 1; d < m.Dims(); d++ {
			if cellDims[d] > maxDim {
				maxDim = cellDims[d]
			}
		}
		cbits := ceilLog2(maxDim)
		if cbits == 0 {
			cbits = 1
		}
		blocks := m.SortedLevel(level)
		entries := make([]orderEntry, 0, len(blocks)*b.cpb)
		coords := make([]uint32, m.Dims())
		for _, id := range blocks {
			for k := 0; k < b.kmax; k++ {
				for j := 0; j < b.bs; j++ {
					for i := 0; i < b.bs; i++ {
						g := m.GlobalCellCoord(id, i, j, k)
						coords[0], coords[1] = g[0], g[1]
						if m.Dims() == 3 {
							coords[2] = g[2]
						}
						entries = append(entries, orderEntry{
							key: b.curve.Index(coords, cbits),
							pos: b.cellPos(id, i, j, k),
						})
					}
				}
			}
		}
		sortEntries(entries)
		for _, e := range entries {
			b.perm = append(b.perm, e.pos)
		}
	}
}

// sortedRoots orders the root blocks along the curve over the root lattice.
func (b *builder) sortedRoots() []amr.BlockID {
	m := b.m
	rd := m.RootDims()
	maxRoot := rd[0]
	for d := 1; d < m.Dims(); d++ {
		if rd[d] > maxRoot {
			maxRoot = rd[d]
		}
	}
	rbits := ceilLog2(maxRoot)
	if rbits == 0 {
		rbits = 1
	}
	roots := m.Roots()
	entries := make([]orderEntry, 0, len(roots))
	coords := make([]uint32, m.Dims())
	for _, id := range roots {
		c := m.Block(id).Coord
		coords[0], coords[1] = uint32(c[0]), uint32(c[1])
		if m.Dims() == 3 {
			coords[2] = uint32(c[2])
		}
		entries = append(entries, orderEntry{key: b.curve.Index(coords, rbits), pos: int32(id)})
	}
	sortEntries(entries)
	out := make([]amr.BlockID, len(entries))
	for i, e := range entries {
		out[i] = amr.BlockID(e.pos)
	}
	return out
}

// buildZMeshCells performs the chained-tree traversal at cell granularity:
// roots in curve order, and within each tree a per-cell depth-first descent
// that emits a coarse cell immediately before the 2^dims finer cells
// covering the same region, sub-cells visited in curve order.
func (b *builder) buildZMeshCells() {
	cellBits := ceilLog2(b.bs)
	if cellBits == 0 {
		cellBits = 1
	}
	for _, root := range b.sortedRoots() {
		// Visit the root block's cells in curve order, descending at each.
		for ci := 0; ci < b.cpb; ci++ {
			i, j, k := b.cellFromCurve(uint64(ci), cellBits)
			g := b.m.GlobalCellCoord(root, i, j, k)
			b.emitCell(0, g, root, i, j, k)
		}
	}
}

// cellFromCurve maps a curve index within a block to cell coordinates.
func (b *builder) cellFromCurve(idx uint64, cellBits uint) (i, j, k int) {
	c := b.curve.Coords(idx, cellBits)
	i, j = int(c[0]), int(c[1])
	if b.m.Dims() == 3 {
		k = int(c[2])
	}
	return
}

// emitCell appends the cell at (level, global coord g) — stored in block id
// at (i,j,k) — and then recursively emits the 2^dims cells of the next
// level covering the same region, in curve order, if that region is refined.
func (b *builder) emitCell(level int, g [3]uint32, id amr.BlockID, i, j, k int) {
	b.perm = append(b.perm, b.cellPos(id, i, j, k))
	// The refining cells live at level+1, coordinates 2g .. 2g+1. They exist
	// iff the child block covering them exists.
	m := b.m
	fine := [3]uint32{g[0] * 2, g[1] * 2, g[2] * 2}
	bs := b.bs
	// Child block coordinate for the first fine cell.
	bc := [3]int{int(fine[0]) / bs, int(fine[1]) / bs, int(fine[2]) / bs}
	if m.Dims() == 2 {
		bc[2] = 0
	}
	cid, ok := m.Lookup(level+1, bc)
	if !ok {
		return
	}
	// All four/eight fine cells lie in the same child block because block
	// sizes are even: a coarse cell's 2x2(x2) refinement never straddles a
	// block boundary.
	subBits := uint(1)
	nsub := 1 << uint(m.Dims())
	for s := 0; s < nsub; s++ {
		c := b.curve.Coords(uint64(s), subBits)
		fi := int(fine[0]) + int(c[0])
		fj := int(fine[1]) + int(c[1])
		fk := 0
		if m.Dims() == 3 {
			fk = int(fine[2]) + int(c[2])
		}
		gg := [3]uint32{uint32(fi), uint32(fj), uint32(fk)}
		b.emitCell(level+1, gg, cid, fi%bs, fj%bs, fk%bs)
	}
}

// orderEntry pairs a curve key with a stream position for sorting.
type orderEntry struct {
	key uint64
	pos int32
}

// sortEntries orders by key ascending with a pos tie-break, so equal curve
// indices (which cannot occur within one level, but keep it total) resolve
// deterministically. This comparator version backs only the serial reference
// builder; the hot path uses the LSD radix sort in radix.go, which yields
// the identical order (it is stable, and entries are generated in ascending
// pos order).
func sortEntries(entries []orderEntry) {
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].key != entries[b].key {
			return entries[a].key < entries[b].key
		}
		return entries[a].pos < entries[b].pos
	})
}
