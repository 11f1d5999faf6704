package huffman

// The full-alphabet reference coder: the implementation Encode and Decode
// replaced, kept verbatim as their differential oracle. It sizes every table
// to the declared alphabet — 7 MB and most of a millisecond per call at
// 65 536 symbols, which is why it is test-only — and its bytes are the format.

import (
	"container/heap"
	"fmt"

	"repro/internal/bitstream"
)

// Encoder holds canonical codes for symbols 0..n-1.
type Encoder struct {
	codes   []uint64 // bit-reversed canonical code, LSB-first ready
	lengths []uint8
}

// node is a Huffman tree node used only during length computation.
type node struct {
	freq        uint64
	symbol      int // -1 for internal
	left, right int // indices into the node arena
	order       int // tie-breaker for deterministic trees
}

type nodeHeap struct {
	arena *[]node
	idx   []int
}

func (h nodeHeap) Len() int { return len(h.idx) }
func (h nodeHeap) Less(i, j int) bool {
	a, b := (*h.arena)[h.idx[i]], (*h.arena)[h.idx[j]]
	if a.freq != b.freq {
		return a.freq < b.freq
	}
	return a.order < b.order
}
func (h nodeHeap) Swap(i, j int)       { h.idx[i], h.idx[j] = h.idx[j], h.idx[i] }
func (h *nodeHeap) Push(x interface{}) { h.idx = append(h.idx, x.(int)) }
func (h *nodeHeap) Pop() interface{} {
	old := h.idx
	n := len(old)
	v := old[n-1]
	h.idx = old[:n-1]
	return v
}

// CodeLengths computes Huffman code lengths for the given symbol frequencies.
// Symbols with zero frequency get length 0 (no code). If only one symbol has
// nonzero frequency it is assigned length 1.
func CodeLengths(freqs []uint64) []uint8 {
	lengths := make([]uint8, len(freqs))
	arena := make([]node, 0, 2*len(freqs))
	h := nodeHeap{arena: &arena}
	for sym, f := range freqs {
		if f == 0 {
			continue
		}
		arena = append(arena, node{freq: f, symbol: sym, left: -1, right: -1, order: len(arena)})
		h.idx = append(h.idx, len(arena)-1)
	}
	switch len(h.idx) {
	case 0:
		return lengths
	case 1:
		lengths[arena[h.idx[0]].symbol] = 1
		return lengths
	}
	heap.Init(&h)
	for h.Len() > 1 {
		a := heap.Pop(&h).(int)
		b := heap.Pop(&h).(int)
		arena = append(arena, node{
			freq:   arena[a].freq + arena[b].freq,
			symbol: -1, left: a, right: b, order: len(arena),
		})
		h.arena = &arena
		heap.Push(&h, len(arena)-1)
	}
	root := h.idx[0]
	// Iterative depth-first walk assigning depths.
	type frame struct {
		n     int
		depth uint8
	}
	stack := []frame{{root, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := arena[f.n]
		if nd.symbol >= 0 {
			lengths[nd.symbol] = f.depth
			continue
		}
		stack = append(stack, frame{nd.left, f.depth + 1}, frame{nd.right, f.depth + 1})
	}
	return lengths
}

// reverseBits reverses the low n bits of v.
func reverseBits(v uint64, n uint8) uint64 {
	var r uint64
	for i := uint8(0); i < n; i++ {
		r = (r << 1) | (v & 1)
		v >>= 1
	}
	return r
}

// canonicalCodes assigns canonical codes from lengths. Returned codes are
// bit-reversed so they can be emitted LSB-first by the bitstream writer.
func canonicalCodes(lengths []uint8) ([]uint64, error) {
	maxLen := uint8(0)
	for _, l := range lengths {
		if l > MaxCodeLen {
			return nil, ErrBadTable
		}
		if l > maxLen {
			maxLen = l
		}
	}
	codes := make([]uint64, len(lengths))
	if maxLen == 0 {
		return codes, nil
	}
	// Count codes of each length, then derive first code per length.
	count := make([]uint64, maxLen+1)
	for _, l := range lengths {
		if l > 0 {
			count[l]++
		}
	}
	firstCode := make([]uint64, maxLen+2)
	var code uint64
	for l := uint8(1); l <= maxLen; l++ {
		code = (code + count[l-1]) << 1
		firstCode[l] = code
	}
	// Kraft check: assigning all codes must not overflow the space.
	next := make([]uint64, maxLen+1)
	copy(next, firstCode[:maxLen+1])
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		c := next[l]
		next[l]++
		if c >= (1 << l) {
			return nil, ErrBadTable
		}
		codes[sym] = reverseBits(c, l)
	}
	return codes, nil
}

// NewEncoder builds an encoder from symbol frequencies.
func NewEncoder(freqs []uint64) (*Encoder, error) {
	lengths := CodeLengths(freqs)
	codes, err := canonicalCodes(lengths)
	if err != nil {
		return nil, err
	}
	return &Encoder{codes: codes, lengths: lengths}, nil
}

// Encode appends the code for sym to the writer.
func (e *Encoder) Encode(w *bitstream.Writer, sym int) error {
	if sym < 0 || sym >= len(e.lengths) || e.lengths[sym] == 0 {
		return fmt.Errorf("huffman: symbol %d has no code", sym)
	}
	w.WriteBits(e.codes[sym], uint(e.lengths[sym]))
	return nil
}

// Lengths exposes the code-length table for serialization.
func (e *Encoder) Lengths() []uint8 { return e.lengths }

// WriteTable serializes the code-length table. Lengths fit in 6 bits
// (MaxCodeLen < 64); a simple run-length scheme compresses the zero runs
// that dominate sparse alphabets.
func (e *Encoder) WriteTable(w *bitstream.Writer) {
	w.WriteBits(uint64(len(e.lengths)), 32)
	i := 0
	for i < len(e.lengths) {
		if e.lengths[i] == 0 {
			// zero run: flag bit 0 + 16-bit run length
			run := 0
			for i+run < len(e.lengths) && e.lengths[i+run] == 0 && run < 0xffff {
				run++
			}
			w.WriteBit(0)
			w.WriteBits(uint64(run), 16)
			i += run
			continue
		}
		w.WriteBit(1)
		w.WriteBits(uint64(e.lengths[i]), 6)
		i++
	}
}

// Decoder performs canonical Huffman decoding using the classic
// firstCode/count walk: one comparison per bit, no table lookups beyond a
// final indexed load into the length-sorted symbol list.
type Decoder struct {
	maxLen    uint8
	firstCode []uint64 // firstCode[l]: canonical code of the first length-l symbol
	count     []uint64 // count[l]: number of length-l symbols
	offset    []int    // offset[l]: index of first length-l symbol in sorted
	sorted    []int    // symbols ordered by (length, symbol)

	// lookup accelerates DecodeAll: indexed by the next lookupBits stream
	// bits (LSB-first); entry = symbol<<6 | codeLen, 0 = no short code.
	lookupBits uint
	lookup     []uint64
}

// buildLookup fills the short-code table from the length list.
func (d *Decoder) buildLookup(lengths []uint8) {
	lb := uint(d.maxLen)
	if lb > maxLookupBits {
		lb = maxLookupBits
	}
	if lb == 0 {
		lb = 1
	}
	d.lookupBits = lb
	d.lookup = make([]uint64, 1<<lb)
	// Recompute each symbol's canonical code (as canonicalCodes does) and
	// splat every possible suffix of the bit-reversed code.
	next := make([]uint64, d.maxLen+1)
	copy(next, d.firstCode[:d.maxLen+1])
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		c := next[l]
		next[l]++
		if uint(l) > lb {
			continue
		}
		rev := reverseBits(c, l)
		step := uint64(1) << uint(l)
		entry := uint64(sym)<<6 | uint64(l)
		for idx := rev; idx < uint64(len(d.lookup)); idx += step {
			d.lookup[idx] = entry
		}
	}
}

// NewDecoder rebuilds decoding state from a code-length table.
func NewDecoder(lengths []uint8) (*Decoder, error) {
	if _, err := canonicalCodes(lengths); err != nil {
		return nil, err
	}
	d := &Decoder{}
	for _, l := range lengths {
		if l > d.maxLen {
			d.maxLen = l
		}
	}
	d.count = make([]uint64, d.maxLen+1)
	for _, l := range lengths {
		if l > 0 {
			d.count[l]++
		}
	}
	d.firstCode = make([]uint64, d.maxLen+2)
	d.offset = make([]int, d.maxLen+2)
	var code uint64
	total := 0
	for l := uint8(1); l <= d.maxLen; l++ {
		code = (code + d.count[l-1]) << 1
		d.firstCode[l] = code
		d.offset[l] = total
		total += int(d.count[l])
	}
	d.sorted = make([]int, total)
	next := make([]int, d.maxLen+1)
	copy(next, d.offset[:d.maxLen+1])
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		d.sorted[next[l]] = sym
		next[l]++
	}
	return d, nil
}

// Decode consumes one code from the reader and returns its symbol.
func (d *Decoder) Decode(r *bitstream.Reader) (int, error) {
	var code uint64
	for l := uint8(1); l <= d.maxLen; l++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		code = (code << 1) | uint64(b)
		if rel := code - d.firstCode[l]; code >= d.firstCode[l] && rel < d.count[l] {
			return d.sorted[d.offset[l]+int(rel)], nil
		}
	}
	return 0, ErrBadSymbol
}

// ReadTable deserializes a table written by WriteTable.
func ReadTable(r *bitstream.Reader) ([]uint8, error) {
	n64, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	n := int(n64)
	if n < 0 || n > 1<<28 {
		return nil, ErrBadTable
	}
	lengths := make([]uint8, n)
	i := 0
	for i < n {
		flag, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if flag == 0 {
			run, err := r.ReadBits(16)
			if err != nil {
				return nil, err
			}
			if run == 0 || i+int(run) > n {
				return nil, ErrBadTable
			}
			i += int(run)
			continue
		}
		l, err := r.ReadBits(6)
		if err != nil {
			return nil, err
		}
		lengths[i] = uint8(l)
		i++
	}
	return lengths, nil
}

// EncodeAll Huffman-encodes symbols (building the table from their observed
// frequencies), writes the table followed by the symbol count and the coded
// stream, and returns the serialized bytes.
func EncodeAll(symbols []int, alphabet int) ([]byte, error) {
	freqs := make([]uint64, alphabet)
	for _, s := range symbols {
		if s < 0 || s >= alphabet {
			return nil, fmt.Errorf("huffman: symbol %d outside alphabet %d", s, alphabet)
		}
		freqs[s]++
	}
	enc, err := NewEncoder(freqs)
	if err != nil {
		return nil, err
	}
	w := bitstream.NewWriter(len(symbols) * 8)
	enc.WriteTable(w)
	w.WriteBits(uint64(len(symbols)), 40)
	for _, s := range symbols {
		if err := enc.Encode(w, s); err != nil {
			return nil, err
		}
	}
	return w.Bytes(), nil
}

// DecodeAll reverses EncodeAll. It decodes with a one-level lookup table
// over the next lookupBits bits (codes longer than that fall back to the
// canonical bit-by-bit walk), reading the byte slice directly.
func DecodeAll(data []byte) ([]int, error) {
	r := bitstream.NewReader(data)
	lengths, err := ReadTable(r)
	if err != nil {
		return nil, err
	}
	dec, err := NewDecoder(lengths)
	if err != nil {
		return nil, err
	}
	n64, err := r.ReadBits(40)
	if err != nil {
		return nil, err
	}
	if n64 > 1<<34 {
		return nil, ErrBadTable
	}
	// Every symbol costs at least one bit, so a count exceeding the bits
	// left in the stream is a forged header — reject it before allocating
	// the output array.
	pos := r.BitsRead()
	totalBits := uint64(len(data)) * 8
	if n64 > totalBits-pos {
		return nil, bitstream.ErrShortStream
	}
	out := make([]int, n64)
	if n64 == 0 {
		return out, nil
	}
	dec.buildLookup(lengths)

	// Switch to direct byte-addressed decoding at the current bit offset.
	// The bitstream convention is LSB-first within little-endian words, so
	// stream bit k lives at byte k/8, bit k%8.
	peek := func(p uint64, n uint) uint64 {
		bi := int(p >> 3)
		shift := p & 7
		var v uint64
		if bi+8 <= len(data) {
			v = uint64(data[bi]) | uint64(data[bi+1])<<8 | uint64(data[bi+2])<<16 |
				uint64(data[bi+3])<<24 | uint64(data[bi+4])<<32 | uint64(data[bi+5])<<40 |
				uint64(data[bi+6])<<48 | uint64(data[bi+7])<<56
		} else {
			for o := 0; bi+o < len(data) && o < 8; o++ {
				v |= uint64(data[bi+o]) << (8 * uint(o))
			}
		}
		v >>= shift
		if n < 64 {
			v &= (1 << n) - 1
		}
		return v
	}
	lb := dec.lookupBits
	for i := range out {
		if pos >= totalBits {
			return nil, bitstream.ErrShortStream
		}
		if entry := dec.lookup[peek(pos, lb)]; entry != 0 {
			l := uint64(entry & 0x3f)
			if pos+l > totalBits {
				return nil, bitstream.ErrShortStream
			}
			out[i] = int(entry >> 6)
			pos += l
			continue
		}
		// Slow path: canonical walk bit by bit (codes longer than the
		// lookup width, or an invalid prefix).
		var code uint64
		matched := false
		for l := uint8(1); l <= dec.maxLen; l++ {
			if pos >= totalBits {
				return nil, bitstream.ErrShortStream
			}
			code = (code << 1) | peek(pos, 1)
			pos++
			if rel := code - dec.firstCode[l]; code >= dec.firstCode[l] && rel < dec.count[l] {
				out[i] = dec.sorted[dec.offset[l]+int(rel)]
				matched = true
				break
			}
		}
		if !matched {
			return nil, ErrBadSymbol
		}
	}
	return out, nil
}
