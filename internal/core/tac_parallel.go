package core

// Parallel TAC construction. Levels are independent by construction (boxes
// never cross levels), so the TAC3D layout fans out across levels exactly
// like SFCWithinLevel: each level's job partitions its block lattice and
// writes its cells into a disjoint, pre-sized span of the shared
// permutation. The partition here is grid-based — dense occupancy/owner
// arrays indexed by lattice position, falling back to int64-keyed maps when
// the lattice is much larger than the level's population — and shares no
// code with the map-based serial oracle in oracle_test.go; the differential
// test asserts bit-for-bit equality of both the permutation and the plan.

import (
	"fmt"

	"repro/internal/amr"
)

// tacLattice is the builder's occupancy/ownership index over one level's
// block lattice. Dense arrays when the lattice volume is within a small
// factor of the block population; int64-keyed maps otherwise, so a deep,
// sparsely-refined level never allocates memory proportional to the full
// lattice volume.
type tacLattice struct {
	bd     [3]int
	blocks []int32 // dense: block id + 1, 0 = empty
	owner  []int32 // dense: box index + 1, 0 = unassigned
	mblk   map[int64]int32
	mown   map[int64]int32
}

func newTACLattice(bd [3]int, ids []amr.BlockID, m *amr.Mesh) *tacLattice {
	g := &tacLattice{bd: bd}
	vol := int64(bd[0]) * int64(bd[1]) * int64(bd[2])
	if vol <= int64(8*len(ids))+4096 {
		g.blocks = make([]int32, vol)
		g.owner = make([]int32, vol)
	} else {
		g.mblk = make(map[int64]int32, len(ids))
		g.mown = make(map[int64]int32, len(ids))
	}
	for _, id := range ids {
		c := m.Block(id).Coord
		g.setBlock(c[0], c[1], c[2], int32(id)+1)
	}
	return g
}

func (g *tacLattice) key(x, y, z int) int64 {
	return (int64(z)*int64(g.bd[1])+int64(y))*int64(g.bd[0]) + int64(x)
}

func (g *tacLattice) setBlock(x, y, z int, v int32) {
	if g.blocks != nil {
		g.blocks[g.key(x, y, z)] = v
		return
	}
	g.mblk[g.key(x, y, z)] = v
}

// block returns the block id at a lattice position (+1 encoding undone) and
// whether the position is occupied.
func (g *tacLattice) block(x, y, z int) (amr.BlockID, bool) {
	var v int32
	if g.blocks != nil {
		v = g.blocks[g.key(x, y, z)]
	} else {
		v = g.mblk[g.key(x, y, z)]
	}
	return amr.BlockID(v - 1), v != 0
}

// ownerOf returns the owning box index and whether the position is assigned.
func (g *tacLattice) ownerOf(x, y, z int) (int, bool) {
	var v int32
	if g.owner != nil {
		v = g.owner[g.key(x, y, z)]
	} else {
		v = g.mown[g.key(x, y, z)]
	}
	return int(v - 1), v != 0
}

func (g *tacLattice) setOwner(x, y, z, boxIdx int) {
	if g.owner != nil {
		g.owner[g.key(x, y, z)] = int32(boxIdx) + 1
		return
	}
	g.mown[g.key(x, y, z)] = int32(boxIdx) + 1
}

// tacPartitionLevel partitions one level and writes its cells into span,
// returning the level's boxes in creation order. The greedy growth follows
// the partition spec documented in tac.go. Partition and emission together
// record into recipe.descent.
func (bctx *buildContext) tacPartitionLevel(level int, span []int32) ([]TACBox, error) {
	t0 := bctx.met.now()
	m := bctx.m
	ids := bctx.levels[level]
	if len(ids) == 0 {
		return nil, nil
	}
	bd := m.LevelCellDims(level)
	for d := 0; d < m.Dims(); d++ {
		bd[d] /= bctx.bs
	}
	if m.Dims() == 2 {
		bd[2] = 1
	}
	g := newTACLattice(bd, ids, m)
	maxSide := tacMaxSideBlocks(bctx.bs)
	var boxes []TACBox
	next := 0
	for _, seed := range ids {
		c := m.Block(seed).Coord
		if _, taken := g.ownerOf(c[0], c[1], c[2]); taken {
			continue
		}
		min, size := [3]int{c[0], c[1], c[2]}, [3]int{1, 1, 1}
		claimed := 1
		for {
			extended := false
			for d := 0; d < m.Dims(); d++ {
				if size[d] >= maxSide || min[d]+size[d] >= bd[d] {
					continue
				}
				gain := g.slabGain(min, size, d)
				if gain == 0 {
					continue
				}
				grown := size
				grown[d]++
				if (claimed+gain)*tacMinFillDen < grown[0]*grown[1]*grown[2]*tacMinFillNum {
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
		box, wrote := bctx.writeTACBox(g, level, min, size, len(boxes), span[next:])
		next += wrote
		boxes = append(boxes, box)
	}
	if next != len(span) {
		return nil, fmt.Errorf("core: tac level %d emitted %d of %d cells", level, next, len(span))
	}
	if bctx.met != nil {
		bctx.met.descent.Since(t0)
	}
	return boxes, nil
}

// slabGain counts occupied, unassigned blocks in the one-slab extension of
// (min, size) in direction d.
func (g *tacLattice) slabGain(min, size [3]int, d int) int {
	lo, hi := min, [3]int{min[0] + size[0], min[1] + size[1], min[2] + size[2]}
	lo[d] = min[d] + size[d]
	hi[d] = lo[d] + 1
	gain := 0
	for z := lo[2]; z < hi[2]; z++ {
		for y := lo[1]; y < hi[1]; y++ {
			for x := lo[0]; x < hi[0]; x++ {
				if _, ok := g.block(x, y, z); !ok {
					continue
				}
				if _, taken := g.ownerOf(x, y, z); !taken {
					gain++
				}
			}
		}
	}
	return gain
}

// writeTACBox claims the box's blocks, writes its cells into out in local
// row-major order, and returns the box plus the number of cells written.
func (bctx *buildContext) writeTACBox(g *tacLattice, level int, min, size [3]int, boxIdx int, out []int32) (TACBox, int) {
	for z := min[2]; z < min[2]+size[2]; z++ {
		for y := min[1]; y < min[1]+size[1]; y++ {
			for x := min[0]; x < min[0]+size[0]; x++ {
				if _, ok := g.block(x, y, z); !ok {
					continue
				}
				if _, taken := g.ownerOf(x, y, z); !taken {
					g.setOwner(x, y, z, boxIdx)
				}
			}
		}
	}
	bs := bctx.bs
	cd := [3]int{size[0] * bs, size[1] * bs, 1}
	if bctx.m.Dims() == 3 {
		cd[2] = size[2] * bs
	}
	volume := cd[0] * cd[1] * cd[2]
	mask := make([]uint64, maskWords(volume))
	idx, wrote := 0, 0
	for z := 0; z < cd[2]; z++ {
		for y := 0; y < cd[1]; y++ {
			for x := 0; x < cd[0]; x++ {
				bx, by, bz := min[0]+x/bs, min[1]+y/bs, min[2]+z/bs
				if own, taken := g.ownerOf(bx, by, bz); taken && own == boxIdx {
					id, _ := g.block(bx, by, bz)
					out[wrote] = bctx.cellPos(id, x%bs, y%bs, z%bs)
					wrote++
					mask[idx>>6] |= 1 << (uint(idx) & 63)
				}
				idx++
			}
		}
	}
	mask, n := finalizeMask(mask, volume)
	return TACBox{Level: level, Min: min, Size: size, CellDims: cd, NumCells: n, Mask: mask}, wrote
}

// buildTACParallel fans the TAC layout out across levels and assembles the
// plan in level order.
func (bctx *buildContext) buildTACParallel(perm []int32, workers int) (*TACPlan, error) {
	spans, err := bctx.levelSpans(perm)
	if err != nil {
		return nil, err
	}
	boxesByLevel := make([][]TACBox, len(bctx.levels))
	err = bctx.runSpans(len(spans), workers, func(w *spanWriter, l int) error {
		boxes, err := bctx.tacPartitionLevel(l, spans[l])
		boxesByLevel[l] = boxes
		return err
	})
	if err != nil {
		return nil, err
	}
	plan := &TACPlan{}
	for _, boxes := range boxesByLevel {
		plan.Boxes = append(plan.Boxes, boxes...)
	}
	return plan, nil
}
