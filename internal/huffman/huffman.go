// Package huffman implements a canonical Huffman coder over dense integer
// alphabets. It is the entropy backend of the SZ-like codec and the
// multilevel progressive tiers, which encode quantization codes drawn from a bounded alphabet
// (the quantization radius). Only code lengths are serialized; canonical code
// assignment makes the table reconstruction deterministic and compact.
//
// The alphabet is large (65 536 by default) and a stream uses a sliver of it:
// a cluster of codes around the radius plus the escape symbol 0. Every table
// here is therefore built from the symbols that occur — their span on the
// encode side, the entries of the serialized table on the decode side — so a
// call costs O(values + span), never O(alphabet).
//
// Stream layout, bits LSB-first in little-endian words (format v2; the plain
// reference in oracle_test.go is its definition):
//
//	alphabet A          32 bits
//	table               gamma(K+1), then K entries in ascending symbol order:
//	                    gamma(symbol − previous symbol, starting from −1)
//	                    gamma(zigzag(length − previous length, from 0) + 1)
//	value count n       40 bits
//	codes               canonical Huffman, most significant code bit first
//
// gamma(v) is Elias-gamma for v ≥ 1: N zeros, a one, the N bits below v's
// leading one. For A ≥ 4 runs of the centre code A/2 — the zero residual,
// a quarter to a half of a typical stream — are folded into the alphabet:
// a run of r is written as the bijective base-2 digits of r, least
// significant first — the bits of r+1 below its leading one — over two
// symbols (RUNA = A/2 itself is digit 1, a 0 bit; RUNB = the extra symbol A
// is digit 2, a 1 bit). A group holds at most runDigits digits,
// i.e. at most maxRun values; longer runs are split into full groups first.
// So a group ends at its runDigits-th digit, at any other symbol, or where
// the values decoded so far plus the group's come to n, and one coded bit
// never stands for more than maxValuesPerBit values.
package huffman

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	// minFoldAlphabet is the smallest alphabet whose centre runs are folded.
	minFoldAlphabet = 4
	// runDigits is the most digits one run group holds and maxRun the most
	// values it then stands for, 2·(2^runDigits − 1).
	runDigits = 8
	maxRun    = 2<<runDigits - 2
	// maxValuesPerBit bounds the values one coded bit can stand for: every
	// digit costs a bit, and a full group is the densest.
	maxValuesPerBit = maxRun/runDigits + 1
	// maxGammaZeros caps the unary prefix of a gamma code in a table.
	maxGammaZeros = 40
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

// encScratch is the pooled encoder state. tab is indexed by symbol+1 — slot
// 0 is RUNB's, which as a symbol would sit half an alphabet above the rest —
// and holds the symbol's frequency while counting, its code length while the
// tree is built and code<<6|length while coding. Invariant: tab is all-zero
// outside a call, which is what lets a call touch only the span it uses.
type encScratch struct {
	tab    []uint64
	folded []int32 // the call's symbols with centre runs folded; RUNB is -1
	used   []int32 // symbols that occur, ascending
	nodes  []treeNode
}

var encPool = sync.Pool{New: func() any { return new(encScratch) }}

// gamma appends the Elias-gamma code of v, 1 <= v < 1<<29.
func gamma(w *bitstream.Writer, v uint64) {
	n := uint(bits.Len64(v)) - 1
	w.WriteBits(v&(1<<n-1)<<(n+1)|1<<n, 2*n+1)
}

// runB is RUNB among folded symbols, so that symbol+1 indexes encScratch.tab.
const runB = -1

// foldRun writes a run of r centre codes to folded as the bijective base-2
// digits of r, least significant first, and returns what follows them: the
// bits of r+1 below its leading one, 0 for digit 1 (RUNA, the centre) and 1
// for digit 2 (RUNB). A run has no more digits than codes.
func foldRun(folded []int32, r int, centre int32) []int32 {
	for ; r >= maxRun; r -= maxRun {
		for k := range folded[:runDigits] {
			folded[k] = runB
		}
		folded = folded[runDigits:]
	}
	digit, k := [2]int32{centre, runB}, 0
	for r++; r > 1; r >>= 1 {
		folded[k] = digit[r&1]
		k++
	}
	return folded[k:]
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
// their observed frequencies after folding centre runs, and appends the
// table, the symbol count and the coded stream to dst.
func Encode(dst []byte, symbols []int, alphabet int) ([]byte, error) {
	if uint(alphabet) > maxAlphabet {
		return nil, fmt.Errorf("huffman: alphabet %d outside [0, %d]", alphabet, maxAlphabet)
	}
	centre := -1 // equals no symbol
	if alphabet >= minFoldAlphabet {
		centre = alphabet / 2
	}
	sc := encPool.Get().(*encScratch)
	defer encPool.Put(sc)
	// The first pass checks the range, folds the runs and finds the span.
	// It writes to folded only, so an error dirties nothing. Symbol 0 is the
	// callers' escape code and sits half an alphabet away from the cluster
	// of real codes, so it is kept out of the span. Where a run ends is as
	// good as random; this is the one pass that branches on it.
	sc.folded = slices.Grow(sc.folded[:0], len(symbols))
	rest := sc.folded[:len(symbols)] // of folded, yet to be written
	lo, hi, run := alphabet, 0, 0
	for _, s := range symbols {
		if uint(s) >= uint(alphabet) {
			return nil, fmt.Errorf("huffman: symbol %d outside alphabet %d", s, alphabet)
		}
		if s == centre {
			run++
			continue
		}
		if run != 0 {
			rest = foldRun(rest, run, int32(centre))
			lo, hi, run = min(lo, centre), max(hi, centre), 0
		}
		if s != 0 {
			lo, hi = min(lo, s), max(hi, s)
		}
		rest[0] = int32(s)
		rest = rest[1:]
	}
	if run != 0 {
		rest = foldRun(rest, run, int32(centre))
		lo, hi = min(lo, centre), max(hi, centre)
	}
	folded := sc.folded[:len(symbols)-len(rest)]

	if len(sc.tab) < hi+2 { // the old table is all-zero: nothing to carry over
		sc.tab = make([]uint64, max(hi+2, 2*len(sc.tab)))
	}
	tab := sc.tab
	defer func() {
		tab[0], tab[1] = 0, 0
		if lo <= hi {
			clear(tab[lo+1 : hi+2])
		}
	}()
	for _, f := range folded {
		tab[f+1]++
	}
	nodes, used := sc.nodes[:0], sc.used[:0]
	if tab[1] != 0 {
		nodes, used = append(nodes, treeNode{freq: tab[1]}), append(used, 0)
	}
	for s := lo; s <= hi; s++ {
		if tab[s+1] != 0 {
			nodes, used = append(nodes, treeNode{freq: tab[s+1], sym: int32(s)}), append(used, int32(s))
		}
	}
	if tab[0] != 0 { // in symbol order RUNB is the symbol alphabet
		nodes, used = append(nodes, treeNode{freq: tab[0], sym: int32(alphabet)}), append(used, int32(alphabet))
	}
	slot := func(sym int32) int32 { // of a used symbol in tab
		if int(sym) == alphabet {
			return 0
		}
		return sym + 1
	}
	nodes = setLengths(nodes)
	sc.nodes, sc.used = nodes, used

	var count, next [MaxCodeLen + 1]uint64 // per length: symbols, next canonical code
	for _, nd := range nodes[:len(used)] {
		if nd.depth > MaxCodeLen {
			return nil, ErrBadTable
		}
		tab[slot(nd.sym)] = uint64(nd.depth)
		count[nd.depth]++
	}
	for l := 1; l <= MaxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}

	// One ascending pass writes the table and swaps each length in tab for
	// its bit-reversed (LSB-first ready) canonical code.
	w := bitstream.NewWriter(dst)
	w.WriteBits(uint64(alphabet), 32)
	gamma(w, uint64(len(used))+1)
	prev, prevLen := -1, uint64(0)
	for _, s := range used {
		l := tab[slot(s)]
		gamma(w, uint64(int(s)-prev))
		gamma(w, zigzag(int64(l)-int64(prevLen))+1)
		prev, prevLen = int(s), l
		tab[slot(s)] = bits.Reverse64(next[l])>>(64-l)<<6 | l
		next[l]++
	}
	w.WriteBits(uint64(len(symbols)), 40)
	for _, f := range folded {
		w.WriteBits(tab[f+1]>>6, uint(tab[f+1]&63))
	}
	return w.Bytes(), nil
}

func zigzag(v int64) uint64 { return uint64(v<<1 ^ v>>63) }

// Decoder entries, in the table and the lookup alike: symbol<<8 | digit<<6 |
// code length, digit being 1 for RUNA, 2 for RUNB and 0 for a literal.
const (
	entrySymShift   = 8
	entryDigitShift = 6
	entryLenMask    = 63
)

// decScratch is the pooled decoder state; every field is rebuilt per call.
type decScratch struct {
	used   []uint64 // one entry per coded symbol, ascending
	sorted []uint64 // the same entries ordered by (length, symbol)
	lookup [1 << maxLookupBits]uint64
}

var decPool = sync.Pool{New: func() any { return new(decScratch) }}

// readGamma reads one Elias-gamma code.
func readGamma(r *bitstream.Reader) (uint64, error) {
	n := uint(0)
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		if n++; n > maxGammaZeros {
			return 0, ErrBadTable
		}
	}
	low, err := r.ReadBits(n)
	return 1<<n | low, err
}

// readTable parses the alphabet and the code table into one entry per coded
// symbol. An entry takes at least two table bits, which bounds their number
// by the bytes given whatever count and alphabet the stream declares.
func readTable(r *bitstream.Reader, used []uint64, totalBits uint64) (_ []uint64, alphabet uint64, err error) {
	if alphabet, err = r.ReadBits(32); err != nil {
		return nil, 0, err
	}
	if alphabet > maxAlphabet {
		return nil, 0, ErrBadTable
	}
	symbols, centre := alphabet, uint64(math.MaxUint64) // coded symbols are below symbols
	if alphabet >= minFoldAlphabet {
		symbols, centre = alphabet+1, alphabet/2
	}
	k, err := readGamma(r)
	if err != nil {
		return nil, 0, err
	}
	if k--; k > symbols || k > (totalBits-r.BitsRead())/2 {
		return nil, 0, ErrBadTable
	}
	sym, l := uint64(0), uint64(0) // sym is one past the previous symbol
	for ; k > 0; k-- {
		gap, err := readGamma(r)
		if err != nil {
			return nil, 0, err
		}
		if sym += gap; sym > symbols {
			return nil, 0, ErrBadTable
		}
		d, err := readGamma(r)
		if err != nil {
			return nil, 0, err
		}
		d--
		if l += d>>1 ^ -(d & 1); l < 1 || l > MaxCodeLen {
			return nil, 0, ErrBadTable
		}
		e := (sym-1)<<entrySymShift | l
		switch sym - 1 {
		case centre:
			e |= 1 << entryDigitShift
		case alphabet:
			e |= 2 << entryDigitShift
		}
		used = append(used, e)
	}
	return used, alphabet, nil
}

// Decode reverses Encode, appending the symbols to dst[:0]. Codes of up to
// maxLookupBits bits resolve through one table load on the next stream bits;
// longer ones by comparing those bits with each longer length's last code.
func Decode(dst []int, data []byte) ([]int, error) {
	sc := decPool.Get().(*decScratch)
	defer decPool.Put(sc)
	r := bitstream.NewReader(data)
	totalBits := uint64(len(data)) * 8
	used, alphabet, err := readTable(r, sc.used[:0], totalBits)
	if err != nil {
		return nil, err
	}
	sc.used = used

	// Canonical decoding state per length l: first code, symbol count, the
	// index in sorted of the first symbol, and the end of the length's codes
	// when every code is left-justified in 63 bits — canonical codes ascend
	// in that order, so the first l whose limit exceeds the stream's next
	// bits is their code's length. A level that needs more codes than l bits
	// offer oversubscribes the code space (Kraft).
	var first, count, limit [MaxCodeLen + 2]uint64
	var offset [MaxCodeLen + 2]int
	maxLen := uint64(0)
	for _, e := range used {
		l := e & entryLenMask
		count[l]++
		maxLen = max(maxLen, l)
	}
	for l := uint64(1); l <= maxLen; l++ {
		first[l] = (first[l-1] + count[l-1]) << 1
		offset[l] = offset[l-1] + int(count[l-1])
		if first[l]+count[l] > 1<<l {
			return nil, ErrBadTable
		}
		limit[l] = (first[l] + count[l]) << (63 - l)
	}
	lb := min(max(maxLen, 1), maxLookupBits)
	lookup := sc.lookup[:1<<lb]
	clear(lookup)
	sorted := slices.Grow(sc.sorted[:0], len(used))[:len(used)]
	sc.sorted = sorted
	next, slot := first, offset
	for _, e := range used {
		l := e & entryLenMask
		c := next[l]
		next[l]++
		sorted[slot[l]] = e
		slot[l]++
		if l <= lb { // splat the entry over every suffix of the reversed code
			for idx := bits.Reverse64(c) >> (64 - l); idx < 1<<lb; idx += 1 << l {
				lookup[idx] = e
			}
		}
	}

	n, err := r.ReadBits(40)
	if err != nil {
		return nil, err
	}
	// A coded bit stands for at most maxValuesPerBit values, so a count
	// beyond what the bits left in the stream can hold is a forged header —
	// reject it before allocating the output array.
	pos := r.BitsRead()
	if n > (totalBits-pos)*maxValuesPerBit {
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
	var (
		mask        = uint64(1)<<lb - 1
		centre      = int(alphabet / 2)
		v, avail    uint64 // the stream from pos on, and how many of its bits v holds
		run, digits uint64 // the open run group: its value so far and its digit count
	)
	for i := 0; i < len(dst); {
		if avail < lb {
			if pos >= totalBits {
				return nil, bitstream.ErrShortStream
			}
			// One load holds 57 or more stream bits: four lookups and up.
			v, avail = peek(pos), min(64-pos&7, totalBits-pos)
		}
		e := lookup[v&mask]
		if l := e & entryLenMask; l > avail {
			return nil, bitstream.ErrShortStream
		} else if e != 0 {
			v, avail, pos = v>>l, avail-l, pos+l
		} else {
			// Slow path: a code longer than the lookup width, or no code at
			// all. Two loads make a window of 64 stream bits.
			w := peek(pos) & (1<<32 - 1)
			if pos+32 < totalBits {
				w |= peek(pos+32) << 32
			}
			w = bits.Reverse64(w) >> 1
			for l = lb + 1; l <= maxLen && w >= limit[l]; l++ {
			}
			if l > maxLen {
				return nil, ErrBadSymbol
			}
			if pos += l; pos > totalBits {
				return nil, bitstream.ErrShortStream
			}
			e = sorted[offset[l]+int(w>>(63-l)-first[l])]
			avail = 0
		}
		d := e >> entryDigitShift & 3
		if left := uint64(len(dst) - i); d != 0 {
			run += d << digits
			if digits++; run > left {
				return nil, ErrBadSymbol // the run overshoots the declared count
			} else if digits < runDigits && run < left {
				continue
			}
		}
		if run != 0 {
			// Most runs are short: eight stores with no loop to mispredict,
			// the surplus overwritten by what follows.
			if fill := dst[i:]; run <= 8 && len(fill) >= 8 {
				fill[0], fill[1], fill[2], fill[3] = centre, centre, centre, centre
				fill[4], fill[5], fill[6], fill[7] = centre, centre, centre, centre
			} else {
				for j := range fill[:run] {
					fill[j] = centre
				}
			}
			i += int(run)
			run, digits = 0, 0
		}
		if d == 0 {
			dst[i] = int(e >> entrySymShift)
			i++
		}
	}
	return dst, nil
}
