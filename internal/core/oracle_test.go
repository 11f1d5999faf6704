package core

// The serial reference recipe builder and the plain permutation loops: the
// test oracles the production builder (parallel.go, tac_parallel.go) and
// the tuned kernels (kernel_unsafe.go) are compared against, bit for bit.
// The builder is a recursive descent appending to one slice and ordering
// curve keys with a comparison sort; its TAC planner keys occupancy and
// ownership by map. None of it shares emission, sorting or partition code
// with the production path, which is what makes the differentials
// meaningful, and none of it runs outside tests.

import (
	"fmt"
	"sort"

	"repro/internal/amr"
	"repro/internal/sfc"
)

// builder carries the traversal state of the serial oracle: append-based
// emission into one slice, comparator sort.
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

// buildRecipeSerial is the single-threaded reference builder: a recursive
// descent appending to one slice, ordering curve keys with a comparison
// sort. It is the differential oracle for buildRecipeParallel.
func buildRecipeSerial(m *amr.Mesh, layout Layout, curveName string) (*Recipe, error) {
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
		var coords [3]uint32
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
	var coords [3]uint32
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

// sortEntries orders by key ascending with a pos tie-break, so equal curve
// indices (which cannot occur within one level, but keep it total) resolve
// deterministically. The production builder uses the LSD radix sort in
// radix.go instead, which yields the identical order (it is stable, and
// entries are generated in ascending pos order).
func sortEntries(entries []orderEntry) {
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].key != entries[b].key {
			return entries[a].key < entries[b].key
		}
		return entries[a].pos < entries[b].pos
	})
}

// The map-based TAC planner. It shares no occupancy, growth, or emission
// code with the grid-based partition in tac_parallel.go, so bit-for-bit
// equality of both the permutation and the plan between the two is a
// meaningful differential.

// buildTAC runs the serial TAC partition and emission, returning the plan.
func (b *builder) buildTAC() (*TACPlan, error) {
	m := b.m
	maxSide := tacMaxSideBlocks(b.bs)
	plan := &TACPlan{}
	for level := 0; level <= m.MaxLevel(); level++ {
		ids := m.SortedLevel(level)
		if len(ids) == 0 {
			continue
		}
		bd := m.LevelCellDims(level)
		for d := 0; d < m.Dims(); d++ {
			bd[d] /= b.bs
		}
		if m.Dims() == 2 {
			bd[2] = 1
		}
		// Occupancy and ownership maps over the level's block lattice.
		occ := make(map[[3]int]amr.BlockID, len(ids))
		owner := make(map[[3]int]int, len(ids))
		for _, id := range ids {
			c := m.Block(id).Coord
			occ[[3]int{c[0], c[1], c[2]}] = id
		}
		for _, seed := range ids {
			sc := m.Block(seed).Coord
			if _, taken := owner[sc]; taken {
				continue
			}
			min, size := sc, [3]int{1, 1, 1}
			claimed := 1
			// Greedy growth: rounds of +x/+y/+z slab extensions.
			for {
				extended := false
				for d := 0; d < m.Dims(); d++ {
					if size[d] >= maxSide || min[d]+size[d] >= bd[d] {
						continue
					}
					gain := b.slabGain(occ, owner, min, size, d)
					if gain == 0 {
						continue
					}
					grown := size
					grown[d]++
					volume := grown[0] * grown[1] * grown[2]
					if (claimed+gain)*tacMinFillDen < volume*tacMinFillNum {
						continue
					}
					size = grown
					claimed += gain
					extended = true
				}
				if !extended {
					break
				}
			}
			// Claim and emit.
			box := b.emitTACBox(occ, owner, level, min, size, len(plan.Boxes))
			plan.Boxes = append(plan.Boxes, box)
		}
	}
	return plan, nil
}

// slabGain counts the occupied, unassigned blocks in the one-slab extension
// of box (min, size) in direction d.
func (b *builder) slabGain(occ map[[3]int]amr.BlockID, owner map[[3]int]int, min, size [3]int, d int) int {
	lo, hi := min, [3]int{min[0] + size[0], min[1] + size[1], min[2] + size[2]}
	lo[d] = min[d] + size[d]
	hi[d] = lo[d] + 1
	gain := 0
	for z := lo[2]; z < hi[2]; z++ {
		for y := lo[1]; y < hi[1]; y++ {
			for x := lo[0]; x < hi[0]; x++ {
				c := [3]int{x, y, z}
				if _, ok := occ[c]; !ok {
					continue
				}
				if _, taken := owner[c]; !taken {
					gain++
				}
			}
		}
	}
	return gain
}

// emitTACBox claims the box's blocks, appends its cells to the permutation
// in local row-major order, and returns the box with its fill mask.
func (b *builder) emitTACBox(occ map[[3]int]amr.BlockID, owner map[[3]int]int, level int, min, size [3]int, boxIdx int) TACBox {
	m := b.m
	for z := min[2]; z < min[2]+size[2]; z++ {
		for y := min[1]; y < min[1]+size[1]; y++ {
			for x := min[0]; x < min[0]+size[0]; x++ {
				c := [3]int{x, y, z}
				if _, ok := occ[c]; !ok {
					continue
				}
				if _, taken := owner[c]; !taken {
					owner[c] = boxIdx
				}
			}
		}
	}
	cd := [3]int{size[0] * b.bs, size[1] * b.bs, 1}
	if m.Dims() == 3 {
		cd[2] = size[2] * b.bs
	}
	volume := cd[0] * cd[1] * cd[2]
	mask := make([]uint64, maskWords(volume))
	idx := 0
	for z := 0; z < cd[2]; z++ {
		for y := 0; y < cd[1]; y++ {
			for x := 0; x < cd[0]; x++ {
				bc := [3]int{min[0] + x/b.bs, min[1] + y/b.bs, min[2] + z/b.bs}
				if own, taken := owner[bc]; taken && own == boxIdx {
					id := occ[bc]
					b.perm = append(b.perm, b.cellPos(id, x%b.bs, y%b.bs, z%b.bs))
					mask[idx>>6] |= 1 << (uint(idx) & 63)
				}
				idx++
			}
		}
	}
	mask, n := finalizeMask(mask, volume)
	return TACBox{Level: level, Min: min, Size: size, CellDims: cd, NumCells: n, Mask: mask}
}

// applyToSerial is ApplyTo over the plain gather loop, with no kernel-safety
// check: the differential oracle for the unsafe kernel.
func (r *Recipe) applyToSerial(dst, flat []float64) ([]float64, error) {
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

// restoreToSerial is RestoreTo over the plain scatter loop — the
// differential oracle for the unsafe kernel, mirroring applyToSerial.
func (r *Recipe) restoreToSerial(dst, ordered []float64) ([]float64, error) {
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
