// Package bitstream provides the bit-granular writer and reader behind the
// Huffman coder, the ZFP-like coder's bit planes and the refinement flags of
// an AMR structure blob.
//
// Bits are packed LSB-first into 64-bit words: the first bit written to a
// word occupies bit 0. Words are serialized little-endian, and the last,
// partial word only up to the byte that holds its last bit. This matches the
// convention used by ZFP's stream layer and keeps single-bit operations
// branch-light.
package bitstream

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortStream is returned when a read requests more bits than remain.
var ErrShortStream = errors.New("bitstream: read past end of stream")

// Writer appends bits to a byte slice through a 64-bit accumulator, so a
// caller's header and the bits after it share one buffer.
type Writer struct {
	buf []byte
	acc uint64 // bits not yet in buf
	n   uint   // bits used in acc, 0..63
}

// NewWriter returns a Writer that appends to dst.
func NewWriter(dst []byte) *Writer { return &Writer{buf: dst} }

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) { w.WriteBits(uint64(b), 1) }

// WriteBits appends the low n bits of v, least-significant bit first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	v &= 1<<n - 1 // all ones for n = 64: the shift yields 0
	w.acc |= v << w.n
	if w.n += n; w.n >= 64 {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, w.acc)
		w.n -= 64
		w.acc = v >> (n - w.n) // 0 once the shift reaches 64
	}
}

// Bytes returns dst with the stream appended, the final partial word
// zero-padded to a whole byte. The result shares the writer's buffer, so
// Bytes is the writer's last call.
func (w *Writer) Bytes() []byte {
	var tail [8]byte
	binary.LittleEndian.PutUint64(tail[:], w.acc)
	return append(w.buf, tail[:(w.n+7)/8]...)
}

// Reader consumes bits from a byte slice produced by Writer.Bytes.
type Reader struct {
	data  []byte
	cur   uint64 // buffered bits, next at bit 0; the bits above nbits are zero
	nbits uint   // bits remaining in cur
	pos   int    // byte offset of next load
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader {
	return &Reader{data: data}
}

// load refills cur with up to 64 bits from the underlying buffer.
func (r *Reader) load() error {
	remain := len(r.data) - r.pos
	if remain <= 0 {
		return ErrShortStream
	}
	if remain >= 8 {
		r.cur = binary.LittleEndian.Uint64(r.data[r.pos:])
		r.pos += 8
		r.nbits = 64
		return nil
	}
	var word uint64
	for i := 0; i < remain; i++ {
		word |= uint64(r.data[r.pos+i]) << (8 * uint(i))
	}
	r.pos += remain
	r.cur = word
	r.nbits = uint(remain) * 8
	return nil
}

// ReadBit consumes and returns one bit.
func (r *Reader) ReadBit() (uint, error) {
	if r.nbits == 0 {
		if err := r.load(); err != nil {
			return 0, err
		}
	}
	b := uint(r.cur & 1)
	r.cur >>= 1
	r.nbits--
	return b, nil
}

// ReadBits consumes n bits (n in [0, 64]) and returns them LSB-aligned.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n == 0 {
		return 0, nil
	}
	if n > 64 {
		panic(fmt.Sprintf("bitstream: ReadBits n=%d out of range", n))
	}
	var v uint64
	if r.nbits >= n {
		if n == 64 {
			v = r.cur
			r.cur = 0
		} else {
			v = r.cur & ((1 << n) - 1)
			r.cur >>= n
		}
		r.nbits -= n
		return v, nil
	}
	// Take what is buffered, then refill.
	got := r.nbits
	v = r.cur
	r.cur = 0
	r.nbits = 0
	if err := r.load(); err != nil {
		return 0, err
	}
	rest := n - got
	if r.nbits < rest {
		return 0, ErrShortStream
	}
	var hi uint64
	if rest == 64 {
		hi = r.cur
		r.cur = 0
	} else {
		hi = r.cur & ((1 << rest) - 1)
		r.cur >>= rest
	}
	r.nbits -= rest
	v |= hi << got
	return v, nil
}

// Peek returns the unread bits buffered after topping the buffer up, next
// bit at bit 0, and how many of them are valid: at least 57, or every bit
// left in the stream. The bits above the valid ones are zero. With Skip it
// lets a caller decode from a window in registers, one word at a time, and
// peek again only when the window runs dry.
func (r *Reader) Peek() (uint64, uint) {
	if r.nbits < 57 {
		r.refill()
	}
	return r.cur, r.nbits
}

// Skip consumes n bits, n no more than the valid count the last Peek
// returned.
func (r *Reader) Skip(n uint) {
	r.cur >>= n
	r.nbits -= n
}

// refill tops the buffer up with whole bytes, keeping the bits above nbits
// zero as ReadBit and ReadBits expect.
func (r *Reader) refill() {
	if len(r.data)-r.pos >= 8 {
		k := (64 - r.nbits) / 8 // whole bytes that fit
		word := binary.LittleEndian.Uint64(r.data[r.pos:])
		r.cur |= word & (^uint64(0) >> ((64 - 8*k) & 63)) << (r.nbits & 63)
		r.pos += int(k)
		r.nbits += 8 * k
		return
	}
	for ; r.nbits <= 56 && r.pos < len(r.data); r.pos++ {
		r.cur |= uint64(r.data[r.pos]) << r.nbits
		r.nbits += 8
	}
}

// BitsRead reports the total number of bits consumed.
func (r *Reader) BitsRead() uint64 { return 8*uint64(r.pos) - uint64(r.nbits) }
