// Package amr implements a block-structured adaptive-mesh-refinement
// substrate in the style of PARAMESH/FLASH: the domain is tiled by a root
// grid of equally sized blocks, each holding blockSize^dims cells, and any
// block may be refined into 2^dims child blocks of the same cell count
// (doubling resolution). Interior blocks retain (restricted) data, matching
// FLASH checkpoints, which is exactly the property zMesh exploits: a coarse
// cell and the fine cells refining it describe the same geometric location.
package amr

import (
	"errors"
	"fmt"
)

// BlockID indexes a block within a Mesh. IDs are dense and stable: blocks
// are never deleted, so an ID is valid for the life of the mesh.
type BlockID int32

// NilBlock marks absent parent/children links.
const NilBlock BlockID = -1

// MaxLevels bounds the refinement depth.
const MaxLevels = 16

// MaxMeshCells bounds the total cell count of a mesh. Stream positions in
// compression recipes (and BlockIDs) are int32; beyond this the level-order
// position arithmetic would silently wrap.
const MaxMeshCells = 1<<31 - 1

// ErrMeshTooLarge is returned when a mesh would exceed MaxMeshCells.
var ErrMeshTooLarge = errors.New("amr: mesh too large (cell positions exceed int32)")

// checkMeshCells verifies rootDims[0]*rootDims[1]*rootDims[2]*blockSize^dims
// stays within MaxMeshCells without intermediate overflow.
func checkMeshCells(dims, blockSize int, rootDims [3]int) error {
	cells := int64(1)
	mul := func(f int) bool {
		if f <= 0 {
			return false
		}
		if cells > MaxMeshCells/int64(f) {
			return false
		}
		cells *= int64(f)
		return true
	}
	for d := 0; d < dims; d++ {
		if !mul(blockSize) {
			return ErrMeshTooLarge
		}
	}
	for d := 0; d < 3; d++ {
		if !mul(rootDims[d]) {
			return ErrMeshTooLarge
		}
	}
	return nil
}

// Block is one node of the refinement forest.
type Block struct {
	ID       BlockID
	Level    int
	Coord    [3]int     // block coordinates on this level's block lattice
	Parent   BlockID    // NilBlock for a root block
	Children [8]BlockID // all NilBlock when the block is a leaf
	refined  bool
}

// IsLeaf reports whether the block has no children.
func (b *Block) IsLeaf() bool { return !b.refined }

type blockKey struct {
	level int
	c     [3]int
}

// Mesh is a block-structured AMR hierarchy over the unit cube/square.
type Mesh struct {
	dims      int
	blockSize int
	rootDims  [3]int
	maxLevel  int // deepest level present
	blocks    []Block
	roots     []BlockID
	index     map[blockKey]BlockID
	byLevel   [][]BlockID // block IDs per level in creation order
}

// NewMesh creates a mesh of rootDims blocks at level 0. dims must be 2 or 3;
// for dims == 2 the z extent of rootDims is forced to 1. blockSize is the
// number of cells per dimension in every block and must be even (children
// restrict pairs of parent cells).
func NewMesh(dims, blockSize int, rootDims [3]int) (*Mesh, error) {
	if dims != 2 && dims != 3 {
		return nil, fmt.Errorf("amr: dims must be 2 or 3, got %d", dims)
	}
	if blockSize < 2 || blockSize%2 != 0 {
		return nil, fmt.Errorf("amr: blockSize must be even and >= 2, got %d", blockSize)
	}
	if dims == 2 {
		rootDims[2] = 1
	}
	for d := 0; d < dims; d++ {
		if rootDims[d] < 1 {
			return nil, fmt.Errorf("amr: rootDims[%d] = %d must be >= 1", d, rootDims[d])
		}
	}
	if err := checkMeshCells(dims, blockSize, rootDims); err != nil {
		return nil, err
	}
	m := &Mesh{
		dims:      dims,
		blockSize: blockSize,
		rootDims:  rootDims,
		index:     make(map[blockKey]BlockID),
		byLevel:   make([][]BlockID, 1),
	}
	for k := 0; k < rootDims[2]; k++ {
		for j := 0; j < rootDims[1]; j++ {
			for i := 0; i < rootDims[0]; i++ {
				id := m.addBlock(0, [3]int{i, j, k}, NilBlock)
				m.roots = append(m.roots, id)
			}
		}
	}
	return m, nil
}

func (m *Mesh) addBlock(level int, coord [3]int, parent BlockID) BlockID {
	id := BlockID(len(m.blocks))
	b := Block{ID: id, Level: level, Coord: coord, Parent: parent}
	for i := range b.Children {
		b.Children[i] = NilBlock
	}
	m.blocks = append(m.blocks, b)
	m.index[blockKey{level, coord}] = id
	for len(m.byLevel) <= level {
		m.byLevel = append(m.byLevel, nil)
	}
	m.byLevel[level] = append(m.byLevel[level], id)
	if level > m.maxLevel {
		m.maxLevel = level
	}
	return id
}

// Dims reports the mesh dimensionality.
func (m *Mesh) Dims() int { return m.dims }

// BlockSize reports cells per dimension per block.
func (m *Mesh) BlockSize() int { return m.blockSize }

// CellsPerBlock reports the total cell count of one block.
func (m *Mesh) CellsPerBlock() int {
	n := m.blockSize * m.blockSize
	if m.dims == 3 {
		n *= m.blockSize
	}
	return n
}

// RootDims reports the root block lattice.
func (m *Mesh) RootDims() [3]int { return m.rootDims }

// MaxLevel reports the deepest refinement level present.
func (m *Mesh) MaxLevel() int { return m.maxLevel }

// NumBlocks reports the total block count (leaves and interior).
func (m *Mesh) NumBlocks() int { return len(m.blocks) }

// NumLeaves reports the leaf block count.
func (m *Mesh) NumLeaves() int {
	n := 0
	for i := range m.blocks {
		if m.blocks[i].IsLeaf() {
			n++
		}
	}
	return n
}

// Block returns the block with the given ID. The pointer stays valid until
// the next refinement (the block arena may be reallocated), so callers must
// not hold it across Refine calls.
func (m *Mesh) Block(id BlockID) *Block {
	return &m.blocks[id]
}

// Roots returns the root block IDs in row-major order.
func (m *Mesh) Roots() []BlockID { return m.roots }

// Level returns the block IDs at the given level in creation order.
func (m *Mesh) Level(l int) []BlockID {
	if l < 0 || l >= len(m.byLevel) {
		return nil
	}
	return m.byLevel[l]
}

// Lookup finds the block at (level, coord), if present.
func (m *Mesh) Lookup(level int, coord [3]int) (BlockID, bool) {
	id, ok := m.index[blockKey{level, coord}]
	return id, ok
}

// levelBlockDims reports the block-lattice extent of a level.
func (m *Mesh) levelBlockDims(level int) [3]int {
	var d [3]int
	for i := 0; i < 3; i++ {
		d[i] = m.rootDims[i] << uint(level)
	}
	if m.dims == 2 {
		d[2] = 1
	}
	return d
}

// childOffset unpacks a child ordinal 0..2^dims-1 into its per-dimension
// offsets (0 or 1): x in bit 0, y in bit 1, z in bit 2.
func (m *Mesh) childOffset(ordinal int) [3]int {
	off := [3]int{ordinal & 1, ordinal >> 1 & 1, 0}
	if m.dims == 3 {
		off[2] = ordinal >> 2 & 1
	}
	return off
}

// NumChildren reports children per refined block (2^dims).
func (m *Mesh) NumChildren() int { return 1 << uint(m.dims) }

// ErrTooDeep is returned when refinement would exceed MaxLevels.
var ErrTooDeep = errors.New("amr: refinement exceeds MaxLevels")

// Refine splits a leaf block into 2^dims children, recursively refining
// coarser neighbours first so the 2:1 level balance (proper nesting) is
// maintained. Refining an already-refined block is a no-op.
func (m *Mesh) Refine(id BlockID) error {
	if m.blocks[id].refined {
		return nil
	}
	level := m.blocks[id].Level
	if level+1 >= MaxLevels {
		return ErrTooDeep
	}
	// 2:1 balance: every face neighbour of this block must exist at this
	// block's level (or the domain boundary). If a neighbour region is only
	// covered at level-1, refine its parent first.
	if level > 0 {
		dims := m.levelBlockDims(level)
		coord := m.blocks[id].Coord
		for d := 0; d < m.dims; d++ {
			for _, dir := range [2]int{-1, 1} {
				nc := coord
				nc[d] += dir
				if nc[d] < 0 || nc[d] >= dims[d] {
					continue // domain boundary
				}
				if _, ok := m.index[blockKey{level, nc}]; ok {
					continue
				}
				// Neighbour missing: its parent at level-1 must exist (by
				// induction) and needs refining.
				pc := [3]int{nc[0] >> 1, nc[1] >> 1, nc[2] >> 1}
				if m.dims == 2 {
					pc[2] = 0
				}
				pid, ok := m.index[blockKey{level - 1, pc}]
				if !ok {
					return fmt.Errorf("amr: broken hierarchy at level %d coord %v", level-1, pc)
				}
				if err := m.Refine(pid); err != nil {
					return err
				}
			}
		}
	}
	// Create the children.
	if int64(len(m.blocks)+m.NumChildren())*int64(m.CellsPerBlock()) > MaxMeshCells {
		return ErrMeshTooLarge
	}
	coord := m.blocks[id].Coord
	for o := 0; o < m.NumChildren(); o++ {
		off := m.childOffset(o)
		cc := [3]int{coord[0]*2 + off[0], coord[1]*2 + off[1], coord[2]*2 + off[2]}
		if m.dims == 2 {
			cc[2] = 0
		}
		cid := m.addBlock(level+1, cc, id)
		m.blocks[id].Children[o] = cid
	}
	m.blocks[id].refined = true
	return nil
}

// Leaves returns all leaf block IDs in level order then creation order.
func (m *Mesh) Leaves() []BlockID {
	var out []BlockID
	for _, lvl := range m.byLevel {
		for _, id := range lvl {
			if m.blocks[id].IsLeaf() {
				out = append(out, id)
			}
		}
	}
	return out
}

// CellExtent reports the physical edge length of a cell at the given level
// in dimension d, over the unit domain.
func (m *Mesh) CellExtent(level, d int) float64 {
	cells := m.rootDims[d] * m.blockSize << uint(level)
	return 1.0 / float64(cells)
}

// CellCenter reports the physical coordinates of the cell (i,j,k) of block
// id, with the domain normalized to the unit square/cube.
func (m *Mesh) CellCenter(id BlockID, i, j, k int) [3]float64 {
	b := &m.blocks[id]
	var p [3]float64
	idx := [3]int{i, j, k}
	for d := 0; d < m.dims; d++ {
		h := m.CellExtent(b.Level, d)
		p[d] = (float64(b.Coord[d]*m.blockSize+idx[d]) + 0.5) * h
	}
	return p
}

// GlobalCellCoord reports the integer cell coordinates of block id's cell
// (i,j,k) on the level-wide cell lattice. These coordinates feed the
// space-filling curves.
func (m *Mesh) GlobalCellCoord(id BlockID, i, j, k int) [3]uint32 {
	b := &m.blocks[id]
	return [3]uint32{
		uint32(b.Coord[0]*m.blockSize + i),
		uint32(b.Coord[1]*m.blockSize + j),
		uint32(b.Coord[2]*m.blockSize + k),
	}
}

// LevelCellDims reports the cell-lattice extent of a level.
func (m *Mesh) LevelCellDims(level int) [3]int {
	bd := m.levelBlockDims(level)
	var d [3]int
	for i := 0; i < 3; i++ {
		d[i] = bd[i] * m.blockSize
	}
	if m.dims == 2 {
		d[2] = 1
	}
	return d
}

// cellIndex converts (i,j,k) to the row-major offset within a block.
func (m *Mesh) cellIndex(i, j, k int) int {
	bs := m.blockSize
	if m.dims == 2 {
		return j*bs + i
	}
	return (k*bs+j)*bs + i
}
