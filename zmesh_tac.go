package zmesh

// The TAC frame format. A TAC3D recipe serializes the field box by box
// (internal/core/tac.go); this file turns that ordered stream into a payload
// by compressing every box as a dense padded 2D/3D array with the dims-aware
// codec — the half of the TAC idea the 1-D layouts cannot express. The frame
// lives *inside* the existing container envelope, so the wire format and CRC
// are untouched:
//
//	"zTAC" | version (1 byte) | uvarint nValues | uvarint nBoxes |
//	nBoxes × uvarint subLen | concatenated per-box codec payloads
//
// Like the permutation itself, the box table carries no geometry: box
// extents and fill masks are rebuilt from the mesh topology at decode time.
// The decoder therefore validates every frame-declared count against the
// topology-derived plan BEFORE sizing any allocation from it — a corrupt or
// hostile frame can fail, but it cannot make the decoder allocate.
//
// Padding cells (positions of the dense box whose block belongs to another
// box) carry the last-seen real value in row-major order, initialized to the
// box's first real value: predictors then see locally-constant data instead
// of zeros punched into a smooth field, and the padded values are simply
// dropped on decode.

import (
	"encoding/binary"
	"fmt"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/frame"
)

const (
	tacFrameMagic   = "zTAC"
	tacFrameVersion = 1
)

// tacFrameScratch carries the reusable buffers of the TAC frame encoder: the
// dense padded box and the accumulated sub-payload area. The zero value is
// ready to use.
type tacFrameScratch struct {
	dense []float64
	body  []byte
	lens  []int
}

func (t *tacFrameScratch) pinnedBytes() int {
	return 8*cap(t.dense) + cap(t.body) + 8*cap(t.lens)
}

// tacBoxDims returns the codec dims of a box's dense array, slowest axis
// first ({dz, dy, dx} in 3-D, {dy, dx} in 2-D), matching the row-major
// (x fastest) cell order the recipe emits.
func tacBoxDims(dims int, box *core.TACBox) []int {
	cd := box.CellDims
	if dims == 3 {
		return []int{cd[2], cd[1], cd[0]}
	}
	return []int{cd[1], cd[0]}
}

// tacFillDense expands one box's real-cell run into its dense padded array.
// run holds the box's NumCells real values in local row-major order.
func tacFillDense(dense []float64, box *core.TACBox, run []float64) {
	if box.Mask == nil {
		copy(dense, run)
		return
	}
	last := run[0]
	k := 0
	for idx := range dense {
		if box.Present(idx) {
			last = run[k]
			k++
		}
		dense[idx] = last
	}
}

// tacResolveBound pins a relative bound to its absolute value over the whole
// field once, so every per-box codec call enforces the same point-wise bound
// the caller asked for (a box's local range must not tighten or loosen it).
// A bound that resolves to zero (constant field) passes through unchanged.
func tacResolveBound(bound Bound, ordered []float64) Bound {
	if abs := bound.Absolute(ordered); abs > 0 {
		return compress.AbsBound(abs)
	}
	return bound
}

// tacCompressBox pads and compresses one box of the ordered stream with the
// dims-aware codec, reusing the scratch dense buffer.
func tacCompressBox(codec compress.Compressor, dims int, box *core.TACBox, run []float64, bound Bound, sc *tacFrameScratch) ([]byte, error) {
	vol := box.Volume()
	if cap(sc.dense) < vol {
		sc.dense = make([]float64, vol)
	}
	dense := sc.dense[:vol]
	tacFillDense(dense, box, run)
	return codec.Compress(dense, tacBoxDims(dims, box), bound)
}

// tacEncodeStream encodes an already TAC-ordered stream into a zTAC frame.
func tacEncodeStream(codec compress.Compressor, dims int, plan *core.TACPlan, ordered []float64, bound Bound, sc *tacFrameScratch) ([]byte, error) {
	if plan == nil {
		return nil, fmt.Errorf("zmesh: tac recipe carries no box plan")
	}
	bound = tacResolveBound(bound, ordered)
	sc.body = sc.body[:0]
	sc.lens = sc.lens[:0]
	off := 0
	for i := range plan.Boxes {
		box := &plan.Boxes[i]
		if off+box.NumCells > len(ordered) {
			return nil, fmt.Errorf("zmesh: tac plan needs %d values past stream end", off+box.NumCells-len(ordered))
		}
		sub, err := tacCompressBox(codec, dims, box, ordered[off:off+box.NumCells], bound, sc)
		if err != nil {
			return nil, fmt.Errorf("zmesh: tac box %d: %w", i, err)
		}
		off += box.NumCells
		sc.lens = append(sc.lens, len(sub))
		sc.body = append(sc.body, sub...)
	}
	if off != len(ordered) {
		return nil, fmt.Errorf("zmesh: tac plan covers %d of %d values", off, len(ordered))
	}
	frame := make([]byte, 0, len(tacFrameMagic)+1+(2+len(sc.lens))*binary.MaxVarintLen64+len(sc.body))
	frame = append(frame, tacFrameMagic...)
	frame = append(frame, tacFrameVersion)
	frame = binary.AppendUvarint(frame, uint64(len(ordered)))
	frame = binary.AppendUvarint(frame, uint64(len(plan.Boxes)))
	for _, l := range sc.lens {
		frame = binary.AppendUvarint(frame, uint64(l))
	}
	return append(frame, sc.body...), nil
}

// tacDecodeStream decodes a zTAC frame back into the TAC-ordered stream.
// want is the topology-derived cell count (recipe length); every count the
// frame declares is checked against the plan before it sizes anything.
func tacDecodeStream(codec compress.Compressor, dims int, plan *core.TACPlan, want int, payload []byte) ([]float64, error) {
	if plan == nil {
		return nil, fmt.Errorf("zmesh: tac recipe carries no box plan")
	}
	if len(payload) < len(tacFrameMagic)+1 || string(payload[:len(tacFrameMagic)]) != tacFrameMagic {
		return nil, fmt.Errorf("zmesh: tac frame: bad magic")
	}
	if v := payload[len(tacFrameMagic)]; v != tacFrameVersion {
		return nil, fmt.Errorf("zmesh: tac frame: unsupported version %d", v)
	}
	r := frame.NewReader(payload[len(tacFrameMagic)+1:])
	total, nBoxes := r.Uvarint(), r.Uvarint()
	if r.Bad() {
		return nil, fmt.Errorf("zmesh: tac frame: truncated value or box count")
	}
	if total != uint64(want) {
		return nil, fmt.Errorf("zmesh: tac frame claims %d values, topology has %d", total, want)
	}
	// The declared box count must match the plan exactly; rejecting here —
	// before the box table is even read — is what caps a declared-box-count
	// allocation bomb.
	if nBoxes != uint64(plan.NumBoxes()) {
		return nil, fmt.Errorf("zmesh: tac frame claims %d boxes, topology has %d", nBoxes, plan.NumBoxes())
	}
	lens := make([]uint64, plan.NumBoxes())
	for i := range lens {
		lens[i] = r.Uvarint()
	}
	// Walk a copy of the reader over the box payloads first, so a table that
	// does not cover the remaining bytes exactly fails before any box decodes.
	body := r
	for _, l := range lens {
		body.Bytes(l)
	}
	if body.Bad() || body.Len() != 0 {
		return nil, fmt.Errorf("zmesh: tac frame: box table does not cover the frame's %d payload bytes exactly", r.Len())
	}
	out := make([]float64, 0, want)
	for i := range plan.Boxes {
		box := &plan.Boxes[i]
		dense, err := codec.Decompress(r.Bytes(lens[i]))
		if err != nil {
			return nil, fmt.Errorf("zmesh: tac box %d: %w", i, err)
		}
		if len(dense) != box.Volume() {
			return nil, fmt.Errorf("zmesh: tac box %d decoded to %d cells, box holds %d", i, len(dense), box.Volume())
		}
		if box.Mask == nil {
			out = append(out, dense...)
			continue
		}
		for idx := range dense {
			if box.Present(idx) {
				out = append(out, dense[idx])
			}
		}
	}
	if len(out) != want {
		return nil, fmt.Errorf("zmesh: tac frame: boxes decoded to %d values, topology has %d", len(out), want)
	}
	return out, nil
}
