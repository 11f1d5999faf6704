// Package huffman implements a canonical Huffman coder over dense integer
// alphabets. It is the entropy backend of the SZ-like and multilevel
// compressors, which encode quantization codes drawn from a bounded alphabet
// (the quantization radius). Only code lengths are serialized; canonical code
// assignment makes the table reconstruction deterministic and compact.
//
// The alphabet is large (65 536 by default) and a stream uses a sliver of it:
// a cluster of codes around the radius plus the escape symbol 0. Every table
// here is therefore built from the symbols that occur — their span on the
// encode side, the nonzero entries of the serialized table on the decode
// side — so a call costs O(values + span), never O(alphabet). The bytes are
// those of the full-alphabet coder kept in oracle_test.go.
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/bitstream"
)

const (
	// MaxCodeLen bounds code lengths, so that a code and its 6-bit length
	// share one 64-bit table entry.
	MaxCodeLen = 58
	// maxAlphabet is the largest alphabet a table may declare.
	maxAlphabet = 1 << 28
	// maxLookupBits caps the decode acceleration table at 2^12 entries.
	maxLookupBits = 12
	// maxZeroRun is the longest run of unused symbols one table token covers.
	maxZeroRun = 0xffff
)

var (
	// ErrBadTable is returned when a serialized code-length table is invalid.
	ErrBadTable = errors.New("huffman: invalid code table")
	// ErrBadSymbol is returned when decoding encounters a code with no symbol.
	ErrBadSymbol = errors.New("huffman: undecodable bit pattern")
)

// treeNode is one node of the Huffman tree: leaves sorted by (freq, symbol)
// first, then internal nodes in creation order.
type treeNode struct {
	freq   uint64
	sym    int32 // leaves only
	parent int32
	depth  uint8
}

// encScratch is the pooled encoder state. tab is indexed by symbol and holds
// the symbol's frequency while counting, its code length while the tree is
// built and code<<6|length while coding. Invariant: tab is all-zero outside
// a call, which is what lets a call touch only the span it uses.
type encScratch struct {
	tab   []uint64
	used  []int32 // symbols that occur, ascending
	nodes []treeNode
}

var encPool = sync.Pool{New: func() any { return new(encScratch) }}

// bitWriter appends bits LSB-first to a byte slice in little-endian 64-bit
// words: the byte layout of bitstream.Writer without the intermediate words.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint // bits used in acc, 0..63
}

// put appends the low l bits of v; v < 1<<l and l <= MaxCodeLen.
func (w *bitWriter) put(v uint64, l uint) {
	w.acc |= v << w.n
	if w.n += l; w.n >= 64 {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
		w.n -= 64
		w.acc = v >> (l - w.n)
	}
}

// bytes flushes the partial word, zero-padded to a whole byte.
func (w *bitWriter) bytes() []byte {
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], w.acc)
	return append(w.buf, tail[:(w.n+7)/8]...)
}

// zeros emits the table tokens for a run of unused symbols: flag bit 0 and a
// 16-bit run length, as many times as the run needs.
func (w *bitWriter) zeros(run int) {
	for ; run > 0; run -= min(run, maxZeroRun) {
		w.put(uint64(min(run, maxZeroRun))<<1, 17)
	}
}

// setLengths turns leaves (one treeNode per occurring symbol, ascending) into
// a Huffman tree and records every leaf's depth. Always merging the two
// smallest nodes under the total order (freq, creation index) fixes the tree,
// so the two-queue construction below yields the depths of the oracle's heap.
func setLengths(nodes []treeNode) []treeNode {
	k := len(nodes)
	if k == 1 {
		nodes[0].depth = 1
		return nodes
	}
	slices.SortFunc(nodes, func(a, b treeNode) int {
		return cmp.Or(cmp.Compare(a.freq, b.freq), cmp.Compare(a.sym, b.sym))
	})
	leaf, inner := 0, k
	next := func() int {
		// A leaf wins a frequency tie: it was created before any merge.
		if leaf < k && (inner == len(nodes) || nodes[leaf].freq <= nodes[inner].freq) {
			leaf++
			return leaf - 1
		}
		inner++
		return inner - 1
	}
	for len(nodes) < 2*k-1 {
		a, b := next(), next()
		nodes[a].parent, nodes[b].parent = int32(len(nodes)), int32(len(nodes))
		nodes = append(nodes, treeNode{freq: nodes[a].freq + nodes[b].freq})
	}
	for i := len(nodes) - 2; i >= 0; i-- { // a parent always follows its children
		nodes[i].depth = nodes[nodes[i].parent].depth + 1
	}
	return nodes
}

// Encode Huffman-codes symbols, each in [0, alphabet), with a table built from
// their observed frequencies, and appends the table, the symbol count and the
// coded stream to dst.
func Encode(dst []byte, symbols []int, alphabet int) ([]byte, error) {
	if uint(alphabet) > maxAlphabet {
		return nil, fmt.Errorf("huffman: alphabet %d outside [0, %d]", alphabet, maxAlphabet)
	}
	// Symbol 0 is the callers' escape code and sits half an alphabet away
	// from the cluster of real codes, so it is kept out of the span.
	lo, hi := alphabet, 0
	for _, s := range symbols {
		if uint(s) >= uint(alphabet) {
			return nil, fmt.Errorf("huffman: symbol %d outside alphabet %d", s, alphabet)
		}
		if s != 0 {
			lo, hi = min(lo, s), max(hi, s)
		}
	}
	sc := encPool.Get().(*encScratch)
	if len(sc.tab) <= hi { // the old table is all-zero: nothing to carry over
		sc.tab = make([]uint64, max(hi+1, 2*len(sc.tab)))
	}
	tab := sc.tab
	defer func() {
		tab[0] = 0
		if lo <= hi {
			clear(tab[lo : hi+1])
		}
		encPool.Put(sc)
	}()
	for _, s := range symbols {
		tab[s]++
	}
	nodes, used := sc.nodes[:0], sc.used[:0]
	if tab[0] != 0 {
		nodes, used = append(nodes, treeNode{freq: tab[0]}), append(used, 0)
	}
	for s := lo; s <= hi; s++ {
		if tab[s] != 0 {
			nodes, used = append(nodes, treeNode{freq: tab[s], sym: int32(s)}), append(used, int32(s))
		}
	}
	nodes = setLengths(nodes)
	sc.nodes, sc.used = nodes, used

	var count, next [MaxCodeLen + 1]uint64 // per length: symbols, next canonical code
	for _, nd := range nodes[:len(used)] {
		if nd.depth > MaxCodeLen {
			return nil, ErrBadTable
		}
		tab[nd.sym] = uint64(nd.depth)
		count[nd.depth]++
	}
	for l := 1; l <= MaxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}

	// One ascending pass writes the table and swaps each length in tab for
	// its bit-reversed (LSB-first ready) canonical code.
	w := bitWriter{buf: dst}
	w.put(uint64(alphabet), 32)
	at := 0
	for _, s := range used {
		w.zeros(int(s) - at)
		l := tab[s]
		w.put(l<<1|1, 7)
		tab[s] = bits.Reverse64(next[l])>>(64-l)<<6 | l
		next[l]++
		at = int(s) + 1
	}
	w.zeros(alphabet - at)
	w.put(uint64(len(symbols)), 40)
	for _, s := range symbols {
		w.put(tab[s]>>6, uint(tab[s]&63))
	}
	return w.bytes(), nil
}

// decScratch is the pooled decoder state; every field is rebuilt per call.
type decScratch struct {
	used   []uint64 // symbol<<6|length per coded symbol, ascending
	sorted []int    // symbols ordered by (length, symbol)
	lookup [1 << maxLookupBits]uint64
}

var decPool = sync.Pool{New: func() any { return new(decScratch) }}

// readTable parses a serialized code-length table into symbol<<6|length
// entries for the symbols that have a code. It holds one entry per 7 table
// bits and nothing per unused symbol, so the declared alphabet sizes nothing.
func readTable(r *bitstream.Reader, used []uint64) ([]uint64, error) {
	n, err := r.ReadBits(32)
	if err != nil {
		return nil, err
	}
	if n > maxAlphabet {
		return nil, ErrBadTable
	}
	for sym := uint64(0); sym < n; {
		flag, err := r.ReadBit()
		if err != nil {
			return nil, err
		}
		if flag == 0 {
			run, err := r.ReadBits(16)
			if err != nil {
				return nil, err
			}
			if run == 0 || sym+run > n {
				return nil, ErrBadTable
			}
			sym += run
			continue
		}
		l, err := r.ReadBits(6)
		if err != nil {
			return nil, err
		}
		if l != 0 {
			used = append(used, sym<<6|l)
		}
		sym++
	}
	return used, nil
}

// Decode reverses Encode, appending the symbols to dst[:0]. Codes of up to
// maxLookupBits bits resolve through one table load on the next stream bits;
// longer ones fall back to the canonical firstCode/count walk, bit by bit.
func Decode(dst []int, data []byte) ([]int, error) {
	sc := decPool.Get().(*decScratch)
	defer decPool.Put(sc)
	r := bitstream.NewReader(data)
	used, err := readTable(r, sc.used[:0])
	if err != nil {
		return nil, err
	}
	sc.used = used

	// Canonical decoding state per length l: first code, symbol count, and
	// the index in sorted of the first symbol. A level that needs more codes
	// than l bits offer oversubscribes the code space (Kraft).
	var first, count [MaxCodeLen + 2]uint64
	var offset [MaxCodeLen + 2]int
	maxLen := uint64(0)
	for _, e := range used {
		l := e & 63
		if l > MaxCodeLen {
			return nil, ErrBadTable
		}
		count[l]++
		maxLen = max(maxLen, l)
	}
	for l := uint64(1); l <= maxLen; l++ {
		first[l] = (first[l-1] + count[l-1]) << 1
		offset[l] = offset[l-1] + int(count[l-1])
		if first[l]+count[l] > 1<<l {
			return nil, ErrBadTable
		}
	}
	lb := min(max(uint(maxLen), 1), maxLookupBits)
	lookup := sc.lookup[:1<<lb]
	clear(lookup)
	sorted := slices.Grow(sc.sorted[:0], len(used))[:len(used)]
	sc.sorted = sorted
	next, slot := first, offset
	for _, e := range used {
		l := e & 63
		c := next[l]
		next[l]++
		sorted[slot[l]] = int(e >> 6)
		slot[l]++
		if uint(l) <= lb { // splat the entry over every suffix of the reversed code
			for idx := bits.Reverse64(c) >> (64 - l); idx < 1<<lb; idx += 1 << l {
				lookup[idx] = e
			}
		}
	}

	n, err := r.ReadBits(40)
	if err != nil {
		return nil, err
	}
	if n > 1<<34 {
		return nil, ErrBadTable
	}
	// Every symbol costs at least one bit, so a count exceeding the bits
	// left in the stream is a forged header — reject it before allocating
	// the output array.
	pos, totalBits := r.BitsRead(), uint64(len(data))*8
	if n > totalBits-pos {
		return nil, bitstream.ErrShortStream
	}
	dst = slices.Grow(dst[:0], int(n))[:n]

	// Decode by byte address from here on. Bits are LSB-first within
	// little-endian words, so stream bit k is bit k%8 of byte k/8.
	peek := func(p uint64) uint64 {
		if bi := int(p >> 3); bi+8 <= len(data) {
			return binary.LittleEndian.Uint64(data[bi:]) >> (p & 7)
		}
		var v uint64
		for o, b := range data[p>>3:] {
			v |= uint64(b) << (8 * uint(o))
		}
		return v >> (p & 7)
	}
	mask := uint64(1)<<lb - 1
	for i := 0; i < len(dst); {
		if bi := int(pos >> 3); bi+8 <= len(data) {
			// One load holds 57 or more stream bits: four lookups, no checks.
			v := binary.LittleEndian.Uint64(data[bi:]) >> (pos & 7)
			for k := 0; k < 4 && i < len(dst) && lookup[v&mask] != 0; k++ {
				e := lookup[v&mask]
				dst[i] = int(e >> 6)
				i++
				v >>= e & 63
				pos += e & 63
			}
			if i == len(dst) || lookup[v&mask] != 0 {
				continue
			}
		} else if pos >= totalBits {
			return nil, bitstream.ErrShortStream
		} else if e := lookup[peek(pos)&mask]; e != 0 {
			if pos += e & 63; pos > totalBits {
				return nil, bitstream.ErrShortStream
			}
			dst[i] = int(e >> 6)
			i++
			continue
		}
		// Slow path: a code longer than the lookup width, or no code at all.
		var code uint64
		l := uint64(1)
		for ; l <= maxLen; l++ {
			if pos >= totalBits {
				return nil, bitstream.ErrShortStream
			}
			code = code<<1 | peek(pos)&1
			pos++
			if rel := code - first[l]; code >= first[l] && rel < count[l] {
				dst[i] = sorted[offset[l]+int(rel)]
				i++
				break
			}
		}
		if l > maxLen {
			return nil, ErrBadSymbol
		}
	}
	return dst, nil
}
