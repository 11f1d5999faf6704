package huffman

// The plain reference coder for the v2 stream: fold the centre runs, count
// over the whole alphabet, take code lengths from a container/heap tree,
// write the gamma table and the codes one bit at a time. No pooling, no
// spans, no lookup table — it sizes everything to the declared alphabet,
// which is why it is test-only — and its bytes are the format.

import (
	"container/heap"
	"fmt"

	"repro/internal/bitstream"
)

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

// canonicalCodes assigns canonical codes from lengths: within a length in
// symbol order, each length starting where the previous one's codes end.
func canonicalCodes(lengths []uint8) ([]uint64, error) {
	var count [MaxCodeLen + 1]uint64
	for _, l := range lengths {
		if l > MaxCodeLen {
			return nil, ErrBadTable
		}
		if l > 0 {
			count[l]++
		}
	}
	var next [MaxCodeLen + 1]uint64
	for l := 1; l <= MaxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint64, len(lengths))
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		if codes[sym] = next[l]; codes[sym] >= 1<<l {
			return nil, ErrBadTable // Kraft: the lengths oversubscribe the code space
		}
		next[l]++
	}
	return codes, nil
}

// foldRuns rewrites symbols over [0, alphabet]: every maximal run of the
// centre code becomes the bijective base-2 digits of its length, least
// significant first, digit 1 the centre itself and digit 2 the symbol
// alphabet, in groups of at most maxRun values.
func foldRuns(symbols []int, alphabet int) []int {
	if alphabet < minFoldAlphabet {
		return symbols
	}
	centre := alphabet / 2
	var out []int
	for i := 0; i < len(symbols); {
		if symbols[i] != centre {
			out = append(out, symbols[i])
			i++
			continue
		}
		run := 0
		for ; i < len(symbols) && symbols[i] == centre; i++ {
			run++
		}
		for run > 0 {
			group := min(run, maxRun)
			run -= group
			for ; group > 0; group = (group - 1) / 2 {
				if group%2 == 1 {
					out = append(out, centre)
				} else {
					out = append(out, alphabet)
				}
			}
		}
	}
	return out
}

// gammaOf reads one Elias-gamma code: zeros counted up to the cap, the one,
// then as many bits as there were zeros.
func gammaOf(r *bitstream.Reader) (uint64, error) {
	zeros := uint(0)
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		if zeros++; zeros > maxGammaZeros {
			return 0, ErrBadTable
		}
	}
	v := uint64(1) << zeros
	for i := uint(0); i < zeros; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v += uint64(b) << i
	}
	return v, nil
}

func writeGamma(w *bitstream.Writer, v uint64) {
	n := uint(0)
	for v>>(n+1) != 0 {
		n++
	}
	w.WriteBits(0, n)
	w.WriteBit(1)
	w.WriteBits(v, n) // the n bits below the leading one
}

// writeTable serializes the used symbols of a code-length table.
func writeTable(w *bitstream.Writer, lengths []uint8) {
	used := 0
	for _, l := range lengths {
		if l != 0 {
			used++
		}
	}
	writeGamma(w, uint64(used)+1)
	prev, prevLen := -1, 0
	for sym, l := range lengths {
		if l == 0 {
			continue
		}
		writeGamma(w, uint64(sym-prev))
		if d := int(l) - prevLen; d >= 0 {
			writeGamma(w, uint64(2*d)+1)
		} else {
			writeGamma(w, uint64(-2*d-1)+1)
		}
		prev, prevLen = sym, int(l)
	}
}

// EncodeAll is the reference for Encode.
func EncodeAll(symbols []int, alphabet int) ([]byte, error) {
	if alphabet < 0 || alphabet > maxAlphabet {
		return nil, fmt.Errorf("huffman: alphabet %d outside [0, %d]", alphabet, maxAlphabet)
	}
	for _, s := range symbols {
		if s < 0 || s >= alphabet {
			return nil, fmt.Errorf("huffman: symbol %d outside alphabet %d", s, alphabet)
		}
	}
	folded := foldRuns(symbols, alphabet)
	freqs := make([]uint64, alphabet+1)
	for _, s := range folded {
		freqs[s]++
	}
	lengths := CodeLengths(freqs)
	codes, err := canonicalCodes(lengths)
	if err != nil {
		return nil, err
	}
	w := bitstream.NewWriter(nil)
	w.WriteBits(uint64(alphabet), 32)
	writeTable(w, lengths)
	w.WriteBits(uint64(len(symbols)), 40)
	for _, s := range folded {
		for b := int(lengths[s]) - 1; b >= 0; b-- {
			w.WriteBit(uint(codes[s] >> b & 1))
		}
	}
	return w.Bytes(), nil
}

// DecodeAll is the reference for Decode: the same grammar and the same
// rejections, read one bit at a time.
func DecodeAll(data []byte) ([]int, error) {
	r := bitstream.NewReader(data)
	totalBits := uint64(len(data)) * 8
	a, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	if a > maxAlphabet {
		return nil, ErrBadTable
	}
	alphabet, symbols, centre := int(a), int(a), -1
	if alphabet >= minFoldAlphabet {
		symbols, centre = alphabet+1, alphabet/2
	}
	k, err := gammaOf(r)
	if err != nil {
		return nil, err
	}
	if k--; k > uint64(symbols) || k > (totalBits-r.BitsRead())/2 {
		return nil, ErrBadTable
	}
	type entry struct{ sym, length int }
	entries := make([]entry, 0, k)
	sym, length, maxLen := -1, 0, 0
	kraft := uint64(0) // in units of 2^-MaxCodeLen
	for ; k > 0; k-- {
		gap, err := gammaOf(r)
		if err != nil {
			return nil, err
		}
		if gap > uint64(symbols) {
			return nil, ErrBadTable
		}
		if sym += int(gap); sym >= symbols {
			return nil, ErrBadTable
		}
		z, err := gammaOf(r)
		if err != nil {
			return nil, err
		}
		if z--; z > 4*MaxCodeLen {
			return nil, ErrBadTable
		}
		if z%2 == 0 {
			length += int(z / 2)
		} else {
			length -= int(z/2) + 1
		}
		if length < 1 || length > MaxCodeLen {
			return nil, ErrBadTable
		}
		if kraft += 1 << (MaxCodeLen - length); kraft > 1<<MaxCodeLen {
			return nil, ErrBadTable
		}
		entries = append(entries, entry{sym, length})
		maxLen = max(maxLen, length)
	}
	// Canonical codes in (length, symbol) order; entries ascend by symbol.
	type key struct {
		length int
		code   uint64
	}
	symbolOf := map[key]int{}
	code := uint64(0)
	for l := 1; l <= maxLen; l++ {
		for _, e := range entries {
			if e.length == l {
				symbolOf[key{l, code}] = e.sym
				code++
			}
		}
		code <<= 1
	}

	n, err := r.ReadBits(40)
	if err != nil {
		return nil, err
	}
	if n > (totalBits-r.BitsRead())*maxValuesPerBit {
		return nil, bitstream.ErrShortStream
	}
	out := make([]int, 0, n)
	run, digits := uint64(0), 0
	for uint64(len(out)) < n {
		k, s, found := key{}, 0, false
		for !found {
			if k.length == maxLen {
				return nil, ErrBadSymbol
			}
			b, err := r.ReadBit()
			if err != nil {
				return nil, err
			}
			k = key{k.length + 1, k.code<<1 | uint64(b)}
			s, found = symbolOf[k]
		}
		if s == centre || s == alphabet {
			d := uint64(1)
			if s == alphabet {
				d = 2
			}
			run += d << digits
			digits++
			if left := n - uint64(len(out)); run > left {
				return nil, ErrBadSymbol
			} else if digits < runDigits && run < left {
				continue
			}
		}
		for ; run > 0; run-- {
			out = append(out, centre)
		}
		digits = 0
		if s != centre && s != alphabet {
			out = append(out, s)
		}
	}
	return out, nil
}
