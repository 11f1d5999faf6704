package amr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/bitstream"
	"repro/internal/frame"
)

// structureMagic guards Structure blobs.
const structureMagic = 0x7a4d5348 // "zMSH"

// SortedLevel returns the block IDs at a level ordered row-major by block
// coordinate (z, then y, then x). This is the canonical order used for
// level-by-level serialization and for topology encoding: it depends only on
// the mesh geometry, never on the order refinement happened to occur in, so
// a writer and a reader that share the topology agree on it exactly.
func (m *Mesh) SortedLevel(level int) []BlockID {
	ids := append([]BlockID(nil), m.Level(level)...)
	sort.Slice(ids, func(a, b int) bool {
		ca, cb := m.blocks[ids[a]].Coord, m.blocks[ids[b]].Coord
		if ca[2] != cb[2] {
			return ca[2] < cb[2]
		}
		if ca[1] != cb[1] {
			return ca[1] < cb[1]
		}
		return ca[0] < cb[0]
	})
	return ids
}

// Structure serializes the mesh topology: dimensions, block size, root
// lattice, and one refinement flag per block in canonical (level, row-major)
// order. This is the only metadata zMesh needs to rebuild its restore
// recipe; AMR applications already persist it with every checkpoint, which
// is why the paper counts it as zero additional overhead.
func (m *Mesh) Structure() []byte {
	head := make([]byte, 0, 32+(m.NumBlocks()+7)/8)
	head = binary.AppendUvarint(head, structureMagic)
	head = binary.AppendUvarint(head, uint64(m.dims))
	head = binary.AppendUvarint(head, uint64(m.blockSize))
	head = binary.AppendUvarint(head, uint64(m.rootDims[0]))
	head = binary.AppendUvarint(head, uint64(m.rootDims[1]))
	head = binary.AppendUvarint(head, uint64(m.rootDims[2]))
	head = binary.AppendUvarint(head, uint64(m.maxLevel))

	flags := bitstream.NewWriter(head)
	for level := 0; level <= m.maxLevel; level++ {
		for _, id := range m.SortedLevel(level) {
			if m.blocks[id].refined {
				flags.WriteBit(1)
			} else {
				flags.WriteBit(0)
			}
		}
	}
	return flags.Bytes()
}

// ErrBadStructure is returned when a Structure blob cannot be decoded.
var ErrBadStructure = errors.New("amr: invalid structure blob")

// MeshFromStructure rebuilds a mesh with the identical topology encoded by
// Structure. The rebuilt mesh carries no field data.
func MeshFromStructure(blob []byte) (*Mesh, error) {
	r := frame.NewReader(blob)
	if r.Uvarint() != structureMagic || r.Bad() {
		return nil, ErrBadStructure
	}
	dims64, bs64 := r.Uvarint(), r.Uvarint()
	var root [3]int
	for i := range root {
		v := r.Uvarint()
		if v > MaxMeshCells {
			return nil, fmt.Errorf("amr: structure root dim %d out of range: %w", v, ErrBadStructure)
		}
		root[i] = int(v)
	}
	maxLevel64 := r.Uvarint()
	if r.Bad() {
		return nil, ErrBadStructure
	}
	if dims64 != 2 && dims64 != 3 {
		return nil, fmt.Errorf("amr: structure claims %d dims: %w", dims64, ErrBadStructure)
	}
	if bs64 > MaxMeshCells || maxLevel64 >= MaxLevels {
		return nil, fmt.Errorf("amr: structure header out of range: %w", ErrBadStructure)
	}
	// Every block carries one refinement flag bit, so the remaining bytes
	// bound the block count the blob can describe. Reject root lattices the
	// flag section could not cover before allocating the mesh — a corrupt
	// header must not trigger a multi-gigabyte make().
	if dims64 == 2 {
		root[2] = 1
	}
	maxBlocks := int64(r.Len()) * 8
	rootBlocks := int64(1)
	for d := 0; d < 3; d++ {
		if root[d] <= 0 {
			return nil, fmt.Errorf("amr: structure root dim %d: %w", root[d], ErrBadStructure)
		}
		if rootBlocks > maxBlocks/int64(root[d]) {
			return nil, fmt.Errorf("amr: structure claims %dx%dx%d roots with %d flag bytes: %w",
				root[0], root[1], root[2], r.Len(), ErrBadStructure)
		}
		rootBlocks *= int64(root[d])
	}
	m, err := NewMesh(int(dims64), int(bs64), root)
	if err != nil {
		return nil, fmt.Errorf("amr: structure header: %w", err)
	}
	flags := bitstream.NewReader(r.Rest())
	for level := 0; int64(level) <= int64(maxLevel64); level++ {
		// Snapshot the level's canonical order before creating children.
		ids := m.SortedLevel(level)
		if len(ids) == 0 && level > 0 {
			return nil, ErrBadStructure
		}
		for _, id := range ids {
			bit, err := flags.ReadBit()
			if err != nil {
				return nil, fmt.Errorf("amr: truncated structure: %w: %w", ErrBadStructure, err)
			}
			if bit == 0 {
				continue
			}
			// Raw refinement: topology recorded by Structure is already
			// balanced, so create children directly without neighbour checks.
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
		}
	}
	return m, nil
}

// SameTopology reports whether two meshes have identical structure
// (dimensions, block size, root lattice, and refinement pattern).
func SameTopology(a, b *Mesh) bool {
	if a.dims != b.dims || a.blockSize != b.blockSize || a.rootDims != b.rootDims ||
		a.maxLevel != b.maxLevel || a.NumBlocks() != b.NumBlocks() {
		return false
	}
	for level := 0; level <= a.maxLevel; level++ {
		la, lb := a.SortedLevel(level), b.SortedLevel(level)
		if len(la) != len(lb) {
			return false
		}
		for i := range la {
			ba, bb := a.blocks[la[i]], b.blocks[lb[i]]
			if ba.Coord != bb.Coord || ba.refined != bb.refined {
				return false
			}
		}
	}
	return true
}
