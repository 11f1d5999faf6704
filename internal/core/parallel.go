package core

// Parallel recipe construction. The key observation is that every layout's
// permutation decomposes into spans whose sizes are computable from the
// topology alone before any traversal runs:
//
//   - LevelOrder is the identity — trivially chunkable.
//   - SFCWithinLevel emits each level contiguously; a level's span holds
//     len(SortedLevel(level)) * cellsPerBlock positions.
//   - ZMesh emits each root's chained tree contiguously (in curve order of
//     the roots); a tree's span holds subtreeBlocks * cpb positions, because
//     every block of the tree contributes exactly its own cells once.
//
// Each worker therefore writes its descent into a disjoint, pre-sized span
// of the shared perm slice: no appends, no locks, no post-hoc merge. The
// result is deterministic — span boundaries and span contents are pure
// functions of the mesh, never of scheduling — which the differential tests
// against the serial oracle in oracle_test.go assert for several worker
// counts.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/amr"
	"repro/internal/sfc"
)

// buildContext is the read-only state shared by every span writer of one
// recipe construction. Curves are stateless values, so one serves every
// writer.
type buildContext struct {
	m         *amr.Mesh
	curve     sfc.Curve
	levels    [][]amr.BlockID // canonical SortedLevel order, computed once
	blockBase []int32         // level-order position of each block's first cell
	cpb       int
	bs        int
	kmax      int
	cellBits  uint           // curve bit budget over one block's cells
	met       *recipeMetrics // nil unless BuildRecipeObserved
}

func newBuildContext(m *amr.Mesh, curveName string, met *recipeMetrics) (*buildContext, error) {
	t0 := met.now()
	curve, err := sfc.New(curveName, m.Dims())
	if err != nil {
		return nil, err
	}
	if err := CheckMeshSize(m.NumBlocks(), m.CellsPerBlock()); err != nil {
		return nil, err
	}
	ctx := &buildContext{
		m:        m,
		curve:    curve,
		cpb:      m.CellsPerBlock(),
		bs:       m.BlockSize(),
		kmax:     1,
		cellBits: max(1, ceilLog2(m.BlockSize())),
		met:      met,
	}
	if m.Dims() == 3 {
		ctx.kmax = ctx.bs
	}
	ctx.levels = make([][]amr.BlockID, m.MaxLevel()+1)
	ctx.blockBase = make([]int32, m.NumBlocks())
	pos := int32(0)
	for level := 0; level <= m.MaxLevel(); level++ {
		ids := m.SortedLevel(level)
		ctx.levels[level] = ids
		for _, id := range ids {
			ctx.blockBase[id] = pos
			pos += int32(ctx.cpb)
		}
	}
	if met != nil {
		met.setup.Since(t0)
	}
	return ctx, nil
}

// curveBits is the per-axis curve bit budget covering a lattice of extent
// ext (z = 1 in 2-D), at least 1.
func curveBits(ext [3]int) uint {
	return max(1, ceilLog2(max(ext[0], ext[1], ext[2])))
}

// cellPos is the level-order stream position of cell (i,j,k) of a block
// (k = 0 in 2-D).
func (c *buildContext) cellPos(id amr.BlockID, i, j, k int) int32 {
	return c.blockBase[id] + int32((k*c.bs+j)*c.bs+i)
}

// subtreeBlocks counts the blocks of the refinement tree rooted at id.
func (c *buildContext) subtreeBlocks(id amr.BlockID) int {
	blk := c.m.Block(id)
	n := 1
	if blk.IsLeaf() {
		return n
	}
	nsub := 1 << uint(c.m.Dims())
	for o := 0; o < nsub; o++ {
		n += c.subtreeBlocks(blk.Children[o])
	}
	return n
}

// spanWriter owns one goroutine's traversal state: a disjoint output span
// and reusable sort scratch.
type spanWriter struct {
	ctx     *buildContext
	out     []int32
	next    int
	entries []orderEntry
	scratch []orderEntry
}

func (w *spanWriter) emit(pos int32) {
	w.out[w.next] = pos
	w.next++
}

// runTree emits the chained tree rooted at root into span.
func (w *spanWriter) runTree(root amr.BlockID, span []int32) error {
	t0 := w.ctx.met.now()
	w.out, w.next = span, 0
	for ci := 0; ci < w.ctx.cpb; ci++ {
		c := w.ctx.curve.Coords(uint64(ci), w.ctx.cellBits)
		i, j, k := int(c[0]), int(c[1]), int(c[2])
		w.emitCell(0, w.ctx.m.GlobalCellCoord(root, i, j, k), root, i, j, k)
	}
	if w.next != len(span) {
		return fmt.Errorf("core: tree at root %d emitted %d of %d cells", root, w.next, len(span))
	}
	if m := w.ctx.met; m != nil {
		m.descent.Since(t0)
	}
	return nil
}

// emitCell emits the cell at (level, global coord g) — stored in block id
// at (i,j,k) — and then, if that region is refined, the 2^dims finer cells
// covering it, in curve order, recursively. In 2-D every z is 0.
func (w *spanWriter) emitCell(level int, g [3]uint32, id amr.BlockID, i, j, k int) {
	w.emit(w.ctx.cellPos(id, i, j, k))
	m := w.ctx.m
	fine := [3]uint32{g[0] * 2, g[1] * 2, g[2] * 2}
	bs := w.ctx.bs
	// The refining cells all lie in one child block: block sizes are even,
	// so a coarse cell's 2x2(x2) refinement never straddles a block boundary.
	cid, ok := m.Lookup(level+1, [3]int{int(fine[0]) / bs, int(fine[1]) / bs, int(fine[2]) / bs})
	if !ok {
		return
	}
	nsub := 1 << uint(m.Dims())
	for s := 0; s < nsub; s++ {
		c := w.ctx.curve.Coords(uint64(s), 1)
		f := [3]uint32{fine[0] + c[0], fine[1] + c[1], fine[2] + c[2]}
		w.emitCell(level+1, f, cid, int(f[0])%bs, int(f[1])%bs, int(f[2])%bs)
	}
}

// runLevel emits one level's cells in curve order into span
// (the SFCWithinLevel layout).
func (w *spanWriter) runLevel(level int, span []int32) error {
	t0 := w.ctx.met.now()
	m := w.ctx.m
	cbits := curveBits(m.LevelCellDims(level))
	w.entries = w.entries[:0]
	for _, id := range w.ctx.levels[level] {
		for k := 0; k < w.ctx.kmax; k++ {
			for j := 0; j < w.ctx.bs; j++ {
				for i := 0; i < w.ctx.bs; i++ {
					w.entries = append(w.entries, orderEntry{
						key: w.ctx.curve.Index(m.GlobalCellCoord(id, i, j, k), cbits),
						pos: w.ctx.cellPos(id, i, j, k),
					})
				}
			}
		}
	}
	if len(w.entries) != len(span) {
		return fmt.Errorf("core: level %d emitted %d of %d cells", level, len(w.entries), len(span))
	}
	if cap(w.scratch) < len(w.entries) {
		w.scratch = make([]orderEntry, len(w.entries))
	}
	met := w.ctx.met
	if met != nil {
		met.descent.Since(t0)
		t0 = time.Now()
	}
	radixSortEntries(w.entries, w.scratch[:cap(w.scratch)])
	if met != nil {
		met.sort.Since(t0)
		t0 = time.Now()
	}
	for t, e := range w.entries {
		span[t] = e.pos
	}
	if met != nil {
		met.descent.Since(t0)
	}
	return nil
}

// sortedRootsFast orders the root blocks along the curve over the root
// lattice using the radix sort.
func (ctx *buildContext) sortedRootsFast() []amr.BlockID {
	t0 := ctx.met.now()
	m := ctx.m
	rbits := curveBits(m.RootDims())
	roots := m.Roots()
	entries := make([]orderEntry, len(roots))
	for i, id := range roots {
		c := m.Block(id).Coord
		key := ctx.curve.Index([3]uint32{uint32(c[0]), uint32(c[1]), uint32(c[2])}, rbits)
		entries[i] = orderEntry{key: key, pos: int32(id)}
	}
	radixSortEntries(entries, make([]orderEntry, len(entries)))
	out := make([]amr.BlockID, len(entries))
	for i, e := range entries {
		out[i] = amr.BlockID(e.pos)
	}
	if ctx.met != nil {
		ctx.met.sort.Since(t0)
	}
	return out
}

// buildRecipeParallel builds the recipe with a worker budget; workers <= 0
// uses GOMAXPROCS. Any worker count (including 1) produces the identical
// permutation: partitioning is by topology, not by scheduling. A nil met
// records nothing.
func buildRecipeParallel(m *amr.Mesh, layout Layout, curveName string, workers int, met *recipeMetrics) (*Recipe, error) {
	bctx, err := newBuildContext(m, curveName, met)
	if err != nil {
		return nil, err
	}
	n := m.NumBlocks() * bctx.cpb
	perm := make([]int32, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var plan *TACPlan
	switch layout {
	case LevelOrder:
		fillIdentity(perm, workers)
	case SFCWithinLevel:
		err = bctx.buildLevelsParallel(perm, workers)
	case ZMesh:
		err = bctx.buildTreesParallel(perm, workers)
	case TAC3D:
		plan, err = bctx.buildTACParallel(perm, workers)
	case AutoLayout:
		return nil, fmt.Errorf("core: %w", ErrAutoLayout)
	default:
		return nil, fmt.Errorf("core: unknown layout %v", layout)
	}
	if err != nil {
		return nil, err
	}
	if met != nil {
		met.builds.Inc()
		met.cells.Add(int64(n))
	}
	return &Recipe{layout: layout, curve: curveName, n: n, perm: perm, tac: plan}, nil
}

// runSpans drives the bounded worker pool: jobs[i] is executed exactly once
// by some writer, each into its own span.
func (bctx *buildContext) runSpans(numJobs, workers int, run func(w *spanWriter, job int) error) error {
	if workers > numJobs {
		workers = numJobs
	}
	if workers <= 1 {
		w := &spanWriter{ctx: bctx}
		for i := 0; i < numJobs; i++ {
			if err := run(w, i); err != nil {
				return err
			}
		}
		return nil
	}
	jobs := make(chan int)
	errs := make([]error, numJobs)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(w *spanWriter) {
			defer wg.Done()
			for i := range jobs {
				errs[i] = run(w, i)
			}
		}(&spanWriter{ctx: bctx})
	}
	for i := 0; i < numJobs; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildTreesParallel fans the chained-tree layout out across root trees.
func (bctx *buildContext) buildTreesParallel(perm []int32, workers int) error {
	roots := bctx.sortedRootsFast()
	t0 := bctx.met.now()
	spans := make([][]int32, len(roots))
	off := 0
	for i, id := range roots {
		cells := bctx.subtreeBlocks(id) * bctx.cpb
		spans[i] = perm[off : off+cells]
		off += cells
	}
	if off != len(perm) {
		return fmt.Errorf("core: root spans cover %d of %d cells", off, len(perm))
	}
	if bctx.met != nil {
		bctx.met.setup.Since(t0)
	}
	return bctx.runSpans(len(roots), workers, func(w *spanWriter, i int) error {
		return w.runTree(roots[i], spans[i])
	})
}

// levelSpans carves perm into one span per level, in level order: the
// SFCWithinLevel and TAC3D layouts both emit each level contiguously.
func (bctx *buildContext) levelSpans(perm []int32) ([][]int32, error) {
	spans := make([][]int32, len(bctx.levels))
	off := 0
	for l, ids := range bctx.levels {
		size := len(ids) * bctx.cpb
		spans[l] = perm[off : off+size]
		off += size
	}
	if off != len(perm) {
		return nil, fmt.Errorf("core: level spans cover %d of %d cells", off, len(perm))
	}
	return spans, nil
}

// buildLevelsParallel fans the within-level SFC layout out across levels.
func (bctx *buildContext) buildLevelsParallel(perm []int32, workers int) error {
	spans, err := bctx.levelSpans(perm)
	if err != nil {
		return err
	}
	return bctx.runSpans(len(spans), workers, func(w *spanWriter, l int) error {
		return w.runLevel(l, spans[l])
	})
}

// fillIdentity writes the identity permutation, chunked across workers for
// large meshes.
func fillIdentity(perm []int32, workers int) {
	n := len(perm)
	if workers <= 1 || n < 1<<15 {
		for p := range perm {
			perm[p] = int32(p)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for c0 := 0; c0 < n; c0 += chunk {
		c1 := c0 + chunk
		if c1 > n {
			c1 = n
		}
		wg.Add(1)
		go func(c0, c1 int) {
			defer wg.Done()
			for p := c0; p < c1; p++ {
				perm[p] = int32(p)
			}
		}(c0, c1)
	}
	wg.Wait()
}
