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
// functions of the mesh, never of scheduling — which the differential test
// against the serial reference builder asserts.

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/amr"
	"repro/internal/sfc"
)

// buildContext is the read-only state shared by every span writer of one
// recipe construction.
type buildContext struct {
	m         *amr.Mesh
	curveName string
	levels    [][]amr.BlockID // canonical SortedLevel order, computed once
	blockBase []int32         // level-order position of each block's first cell
	cpb       int
	bs        int
	kmax      int
	met       *recipeMetrics // nil unless BuildRecipeObserved
}

func newBuildContext(m *amr.Mesh, curveName string, met *recipeMetrics) (*buildContext, error) {
	t0 := met.now()
	if _, err := sfc.New(curveName, m.Dims()); err != nil {
		return nil, err
	}
	if err := CheckMeshSize(m.NumBlocks(), m.CellsPerBlock()); err != nil {
		return nil, err
	}
	ctx := &buildContext{
		m:         m,
		curveName: curveName,
		cpb:       m.CellsPerBlock(),
		bs:        m.BlockSize(),
		kmax:      1,
		met:       met,
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

// cellPos is the level-order stream position of cell (i,j,k) of a block.
func (c *buildContext) cellPos(id amr.BlockID, i, j, k int) int32 {
	off := j*c.bs + i
	if c.m.Dims() == 3 {
		off = (k*c.bs+j)*c.bs + i
	}
	return c.blockBase[id] + int32(off)
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

// spanWriter owns one goroutine's traversal state: a disjoint output span,
// a private curve instance, and reusable sort scratch.
type spanWriter struct {
	ctx      *buildContext
	curve    sfc.Curve
	cellBits uint
	out      []int32
	next     int
	coords   []uint32
	entries  []orderEntry
	scratch  []orderEntry
}

func newSpanWriter(ctx *buildContext) (*spanWriter, error) {
	curve, err := sfc.New(ctx.curveName, ctx.m.Dims())
	if err != nil {
		return nil, err
	}
	cellBits := ceilLog2(ctx.bs)
	if cellBits == 0 {
		cellBits = 1
	}
	return &spanWriter{
		ctx:      ctx,
		curve:    curve,
		cellBits: cellBits,
		coords:   make([]uint32, ctx.m.Dims()),
	}, nil
}

func (w *spanWriter) emit(pos int32) {
	w.out[w.next] = pos
	w.next++
}

// cellFromCurve maps a curve index within a block to cell coordinates.
func (w *spanWriter) cellFromCurve(idx uint64) (i, j, k int) {
	c := w.curve.Coords(idx, w.cellBits)
	i, j = int(c[0]), int(c[1])
	if w.ctx.m.Dims() == 3 {
		k = int(c[2])
	}
	return
}

// runTree emits the chained tree rooted at root into span.
func (w *spanWriter) runTree(root amr.BlockID, span []int32) error {
	t0 := w.ctx.met.now()
	w.out, w.next = span, 0
	for ci := 0; ci < w.ctx.cpb; ci++ {
		i, j, k := w.cellFromCurve(uint64(ci))
		g := w.ctx.m.GlobalCellCoord(root, i, j, k)
		w.emitCell(0, g, root, i, j, k)
	}
	if w.next != len(span) {
		return fmt.Errorf("core: tree at root %d emitted %d of %d cells", root, w.next, len(span))
	}
	if m := w.ctx.met; m != nil {
		m.descent.Since(t0)
	}
	return nil
}

// emitCell mirrors builder.emitCell: the cell, then (if refined) the 2^dims
// finer cells covering the same region, in curve order, recursively.
func (w *spanWriter) emitCell(level int, g [3]uint32, id amr.BlockID, i, j, k int) {
	w.emit(w.ctx.cellPos(id, i, j, k))
	m := w.ctx.m
	fine := [3]uint32{g[0] * 2, g[1] * 2, g[2] * 2}
	bs := w.ctx.bs
	bc := [3]int{int(fine[0]) / bs, int(fine[1]) / bs, int(fine[2]) / bs}
	if m.Dims() == 2 {
		bc[2] = 0
	}
	cid, ok := m.Lookup(level+1, bc)
	if !ok {
		return
	}
	nsub := 1 << uint(m.Dims())
	for s := 0; s < nsub; s++ {
		c := w.curve.Coords(uint64(s), 1)
		fi := int(fine[0]) + int(c[0])
		fj := int(fine[1]) + int(c[1])
		fk := 0
		if m.Dims() == 3 {
			fk = int(fine[2]) + int(c[2])
		}
		gg := [3]uint32{uint32(fi), uint32(fj), uint32(fk)}
		w.emitCell(level+1, gg, cid, fi%bs, fj%bs, fk%bs)
	}
}

// runLevel emits one level's cells in curve order into span
// (the SFCWithinLevel layout).
func (w *spanWriter) runLevel(level int, span []int32) error {
	t0 := w.ctx.met.now()
	m := w.ctx.m
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
	w.entries = w.entries[:0]
	for _, id := range w.ctx.levels[level] {
		for k := 0; k < w.ctx.kmax; k++ {
			for j := 0; j < w.ctx.bs; j++ {
				for i := 0; i < w.ctx.bs; i++ {
					g := m.GlobalCellCoord(id, i, j, k)
					w.coords[0], w.coords[1] = g[0], g[1]
					if m.Dims() == 3 {
						w.coords[2] = g[2]
					}
					w.entries = append(w.entries, orderEntry{
						key: w.curve.Index(w.coords, cbits),
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
func (ctx *buildContext) sortedRootsFast() ([]amr.BlockID, error) {
	t0 := ctx.met.now()
	m := ctx.m
	curve, err := sfc.New(ctx.curveName, m.Dims())
	if err != nil {
		return nil, err
	}
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
	scratch := make([]orderEntry, len(roots))
	coords := make([]uint32, m.Dims())
	for _, id := range roots {
		c := m.Block(id).Coord
		coords[0], coords[1] = uint32(c[0]), uint32(c[1])
		if m.Dims() == 3 {
			coords[2] = uint32(c[2])
		}
		entries = append(entries, orderEntry{key: curve.Index(coords, rbits), pos: int32(id)})
	}
	radixSortEntries(entries, scratch)
	out := make([]amr.BlockID, len(entries))
	for i, e := range entries {
		out[i] = amr.BlockID(e.pos)
	}
	if ctx.met != nil {
		ctx.met.sort.Since(t0)
	}
	return out, nil
}

// BuildRecipeParallel builds the recipe with an explicit worker budget;
// workers <= 0 uses GOMAXPROCS. Any worker count (including 1) produces the
// identical permutation: partitioning is by topology, not by scheduling.
func BuildRecipeParallel(m *amr.Mesh, layout Layout, curveName string, workers int) (*Recipe, error) {
	return buildRecipeParallel(m, layout, curveName, workers, nil)
}

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
		w, err := newSpanWriter(bctx)
		if err != nil {
			return err
		}
		for i := 0; i < numJobs; i++ {
			if err := run(w, i); err != nil {
				return err
			}
		}
		return nil
	}
	writers := make([]*spanWriter, workers)
	for g := range writers {
		w, err := newSpanWriter(bctx)
		if err != nil {
			return err
		}
		writers[g] = w
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
		}(writers[g])
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
	roots, err := bctx.sortedRootsFast()
	if err != nil {
		return err
	}
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

// buildLevelsParallel fans the within-level SFC layout out across levels.
func (bctx *buildContext) buildLevelsParallel(perm []int32, workers int) error {
	spans := make([][]int32, len(bctx.levels))
	off := 0
	for l, ids := range bctx.levels {
		size := len(ids) * bctx.cpb
		spans[l] = perm[off : off+size]
		off += size
	}
	if off != len(perm) {
		return fmt.Errorf("core: level spans cover %d of %d cells", off, len(perm))
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
