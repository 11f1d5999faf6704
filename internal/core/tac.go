package core

// TAC-style adaptive 3D block layout (TAC3D). The zMesh layouts flatten the
// AMR hierarchy into one 1-D stream; the TAC/TAC+ line of work instead
// partitions each refinement level into compact rectangular boxes on the
// level's block lattice and compresses every box as a dense 2D/3D array, so
// a dims-aware predictor sees real spatial neighborhoods instead of a
// linearized walk. The layout half of that idea lives here: a deterministic
// greedy partition of every level into boxes, and a Recipe that serializes
// the field box by box in 3D-local row-major order.
//
// Partition spec (the production partition in tac_parallel.go and the test
// oracle in oracle_test.go implement exactly this, independently):
//
//   - Each level is partitioned separately, on its block lattice
//     (levelBlockDims). Boxes never cross levels.
//   - maxSide = max(1, tacTargetSideCells / blockSize) bounds every box side
//     in blocks, so a box holds at most tacTargetSideCells cells per axis.
//   - The level's occupied lattice coordinates are scanned in row-major
//     (z, y, x) order — the SortedLevel order. Each still-unassigned
//     occupied coordinate seeds a 1×1×1 box, which then grows greedily:
//     rounds of +x, +y, +z one-slab extensions (in that fixed order) repeat
//     until no direction extends. An extension is accepted iff the box side
//     stays within maxSide and the lattice, the new slab contains at least
//     one occupied unassigned block, and the grown box keeps
//     claimed/volume >= tacMinFillNum/tacMinFillDen (integer arithmetic, no
//     float determinism questions).
//   - A finalized box claims every occupied unassigned block inside its
//     extent. Boxes are emitted in creation order; within a box, cells run
//     in local row-major order (x fastest) over the box's cell lattice, and
//     a cell is emitted iff its containing block is claimed by this box —
//     the box's fill mask. Every block of the level is claimed by exactly
//     one box, so the concatenation of all boxes is a bijection over the
//     level's cells and the whole permutation remains a pure function of
//     topology: payloads still carry no permutation bytes.
//
// Partially-filled boxes are the "padded" part of the scheme: the plan's
// per-box fill mask tells the frame encoder (package zmesh) which positions
// of the dense padded array are real cells and which are padding, and the
// mask itself is rebuilt from topology at decode time, never stored.

import "math/bits"

// TAC partition tuning. These are part of the layout definition: changing
// them changes every TAC permutation, so they are constants, not options.
const (
	// tacTargetSideCells caps a box side in cells; the side cap in blocks is
	// max(1, tacTargetSideCells/blockSize).
	tacTargetSideCells = 32
	// tacMinFillNum/tacMinFillDen is the minimum fraction of a box's block
	// volume that must be occupied by blocks the box claims (1/2): growth
	// that would dilute a box below half-full is rejected, which is what
	// keeps boxes "compact" on ragged refinement frontiers.
	tacMinFillNum = 1
	tacMinFillDen = 2
)

// tacMaxSideBlocks is the box side cap in blocks for a given block size.
func tacMaxSideBlocks(blockSize int) int {
	side := tacTargetSideCells / blockSize
	if side < 1 {
		side = 1
	}
	return side
}

// TACBox is one box of a TAC plan: a rectangle of whole blocks on one
// level's block lattice, plus the fill mask selecting which cells of the
// dense box are real.
type TACBox struct {
	// Level is the refinement level the box lives on.
	Level int
	// Min and Size locate the box on the level's block lattice, in blocks.
	// Size[2] is 1 on 2-D meshes.
	Min, Size [3]int
	// CellDims are the box's dense cell dimensions ({dx, dy, dz}, dz = 1 on
	// 2-D meshes): Size scaled by the mesh block size.
	CellDims [3]int
	// NumCells counts the real cells (mask popcount).
	NumCells int
	// Mask is the fill mask: bit b set means the cell at row-major index b
	// (x fastest, then y, then z) of the dense box is a real cell. A nil
	// mask means the box is fully dense (NumCells == Volume()).
	Mask []uint64
}

// Volume is the dense cell count of the box, padding included.
func (b *TACBox) Volume() int { return b.CellDims[0] * b.CellDims[1] * b.CellDims[2] }

// Present reports whether the cell at row-major index idx is real.
func (b *TACBox) Present(idx int) bool {
	if b.Mask == nil {
		return true
	}
	return b.Mask[idx>>6]&(1<<(uint(idx)&63)) != 0
}

// TACPlan is the full box decomposition of a mesh: every level's boxes in
// level order, boxes in creation order within a level. Like the Recipe it
// belongs to, a plan is a pure function of the mesh topology.
type TACPlan struct {
	Boxes []TACBox
}

// NumBoxes reports the number of boxes in the plan.
func (p *TACPlan) NumBoxes() int { return len(p.Boxes) }

// TACPlan exposes the box decomposition of a TAC3D recipe (nil for every
// other layout). The zmesh frame encoder uses it to build the dense padded
// per-box arrays; callers must not modify it.
func (r *Recipe) TACPlan() *TACPlan { return r.tac }

// maskWords is the uint64 word count of a fill mask over volume cells.
func maskWords(volume int) int { return (volume + 63) / 64 }

// finalizeMask drops a fully-dense mask (every Present query short-circuits)
// and returns the popcount either way.
func finalizeMask(mask []uint64, volume int) ([]uint64, int) {
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	if n == volume {
		return nil, n
	}
	return mask, n
}
