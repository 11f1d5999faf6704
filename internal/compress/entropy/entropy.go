// Package entropy is the lossless tail shared by the quantizing codecs (sz
// and the multilevel progressive tiers): quantization codes go through the
// run-folding canonical Huffman coder, the codec's header, the coded stream
// and the escaped values form a body, and the body goes through DEFLATE
// where that shrinks it. A marker byte says which: 0 raw, 1 DEFLATE.
//
// The coder has already folded the zero-residual runs, which is what DEFLATE
// used to find in a coded stream; what is left for it are bodies that repeat
// whole stretches of bits (planar-symmetric fields, whose rows quantize
// alike) and bodies that carry many escaped values, raw float64s. So the
// body is tried at flate.BestSpeed first, and the thorough level only runs
// on a body the fast one shrank at all or one that is escapes in good part.
//
// Every work buffer and every flate state live in a pooled Buf, so a call
// allocates its result and little else — the codecs run once per TAC box and
// once per tier, where a flate.NewWriter per call cost more than the coding.
package entropy

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/huffman"
)

// Buf is the pooled work space of one codec call. The exported slices are
// the codec's to fill; nothing in a Buf may outlive Put.
type Buf struct {
	Codes  []int     // one quantization code per value; 0 escapes to Unpred
	Unpred []float64 // escaped values in stream order

	floats       []float64
	ints         []int64
	coded, body  []byte
	packed, fast bytes.Buffer
	fw           [2]*flate.Writer // by pass: BestSpeed, DefaultCompression
	thorough     int              // second passes run so far; tests read it
	src          bytes.Reader
	fr           io.Reader // a flate reader; also a flate.Resetter
}

// passLevels are the DEFLATE levels of the first and the second pass.
var passLevels = [2]int{flate.BestSpeed, flate.DefaultCompression}

// worthThorough is the rule for the second pass: the first one took at least
// half a percent off the body, or escaped values are an eighth of it or more.
// BestSpeed is all or nothing: it probes for 4-byte matches at strides that
// grow over input it cannot match, and the coded stream comes first; it
// Huffman-codes literals only where that saves a sixteenth. So a body that
// does not repeat comes out of it stored, a few bytes longer than it went
// in — also one that ends in escapes, raw float64s, though neighbours on a
// field share their upper bytes and the thorough level takes a fifth to a
// third off a tight-bound body with them.
func worthThorough(body, fast, escaped int) bool {
	return 200*(body-fast) >= body || 8*escaped >= body
}

var pool = sync.Pool{New: func() any { return new(Buf) }}

// Get returns a Buf with Codes sized to n values (contents unspecified) and
// Unpred empty.
func Get(n int) *Buf {
	b := pool.Get().(*Buf)
	b.Codes = slices.Grow(b.Codes[:0], n)[:n]
	b.Unpred = b.Unpred[:0]
	return b
}

// Floats returns pooled float scratch of n values, contents unspecified.
func (b *Buf) Floats(n int) []float64 {
	b.floats = slices.Grow(b.floats[:0], n)[:n]
	return b.floats
}

// Ints returns pooled integer scratch of n values, contents unspecified.
func (b *Buf) Ints(n int) []int64 {
	b.ints = slices.Grow(b.ints[:0], n)[:n]
	return b.ints
}

// Put returns b to the pool.
func (b *Buf) Put() { pool.Put(b) }

// Seal entropy-codes b.Codes over [0, alphabet) and returns the finished
// payload: the marker byte, then head's output ‖ coded stream ‖ b.Unpred as
// float64-LE — through DEFLATE when that is smaller, at whichever of the two
// levels is smallest.
// head appends the codec's header to dst given the coded stream's length.
func (b *Buf) Seal(alphabet int, head func(dst []byte, codedLen int) []byte) ([]byte, error) {
	var err error
	if b.coded, err = huffman.Encode(b.coded[:0], b.Codes, alphabet); err != nil {
		return nil, fmt.Errorf("entropy stage: %w", err)
	}
	body := append(head(append(b.body[:0], 0), len(b.coded)), b.coded...)
	for _, v := range b.Unpred {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
	}
	b.body = body
	best := body // the marker tells the decoder which form it got
	for pass, out := range [2]*bytes.Buffer{&b.fast, &b.packed} {
		if pass == 1 {
			if !worthThorough(len(body), b.fast.Len(), 8*len(b.Unpred)) {
				break
			}
			b.thorough++
		}
		out.Reset()
		out.WriteByte(1)
		if err := b.deflate(out, pass, body[1:]); err != nil {
			return nil, err
		}
		if out.Len() < len(best) {
			best = out.Bytes()
		}
	}
	return bytes.Clone(best), nil
}

// deflate writes p to w as one DEFLATE stream through the pooled writer of
// the given pass.
func (b *Buf) deflate(w io.Writer, pass int, p []byte) error {
	fw := b.fw[pass]
	if fw == nil {
		fw, _ = flate.NewWriter(w, passLevels[pass]) // errs on a bad level only
		b.fw[pass] = fw
	} else {
		fw.Reset(w)
	}
	if _, err := fw.Write(p); err != nil {
		return err
	}
	return fw.Close()
}

// Open undoes the marker layer of a payload of at least two bytes and
// returns the body, which may alias payload or b.
func (b *Buf) Open(payload []byte) ([]byte, error) {
	switch payload[0] {
	case 0:
		return payload[1:], nil
	case 1:
		b.src.Reset(payload[1:])
		if b.fr == nil {
			b.fr = flate.NewReader(&b.src)
		} else if err := b.fr.(flate.Resetter).Reset(&b.src, nil); err != nil {
			return nil, err
		}
		b.packed.Reset()
		_, err := b.packed.ReadFrom(b.fr)
		return b.packed.Bytes(), err
	}
	return nil, fmt.Errorf("unknown lossless marker %d", payload[0])
}

// Decode Huffman-decodes coded into b.Codes, which must come to n codes.
func (b *Buf) Decode(coded []byte, n int) error {
	codes, err := huffman.Decode(b.Codes, coded)
	if err != nil {
		return fmt.Errorf("entropy stage: %w", err)
	}
	if b.Codes = codes; len(codes) != n {
		return fmt.Errorf("%d codes for %d values", len(codes), n)
	}
	return nil
}
