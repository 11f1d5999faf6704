// Package bitstream provides bit-granular writers and readers used by the
// entropy-coding stages of the SZ-like and ZFP-like compressors.
//
// Bits are packed LSB-first into 64-bit words: the first bit written to a
// word occupies bit 0. Words are serialized little-endian. This matches the
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

// Writer accumulates bits into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	words []uint64
	cur   uint64 // partially filled word
	nbits uint   // bits used in cur (0..63)
	total uint64 // total bits written
}

// NewWriter returns a Writer with capacity pre-allocated for sizeHint bits.
func NewWriter(sizeHint int) *Writer {
	w := &Writer{}
	if sizeHint > 0 {
		w.words = make([]uint64, 0, (sizeHint+63)/64)
	}
	return w
}

// WriteBit appends a single bit (the low bit of b).
func (w *Writer) WriteBit(b uint) {
	w.cur |= uint64(b&1) << w.nbits
	w.nbits++
	w.total++
	if w.nbits == 64 {
		w.words = append(w.words, w.cur)
		w.cur = 0
		w.nbits = 0
	}
}

// WriteBits appends the low n bits of v, least-significant bit first.
// n must be in [0, 64].
func (w *Writer) WriteBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	if n > 64 {
		panic(fmt.Sprintf("bitstream: WriteBits n=%d out of range", n))
	}
	if n < 64 {
		v &= (1 << n) - 1
	}
	w.total += uint64(n)
	w.cur |= v << w.nbits
	used := 64 - w.nbits
	if n < used {
		w.nbits += n
		return
	}
	// cur is full: flush it and start a new word with the remaining bits.
	w.words = append(w.words, w.cur)
	w.cur = 0
	w.nbits = n - used
	if used < 64 && w.nbits > 0 {
		w.cur = v >> used
	}
}

// Len reports the number of bits written so far.
func (w *Writer) Len() uint64 { return w.total }

// Bytes serializes the stream. The final partial word is zero-padded.
// The writer remains usable after calling Bytes.
func (w *Writer) Bytes() []byte {
	n := len(w.words)
	hasTail := w.nbits > 0
	out := make([]byte, 0, (n+1)*8)
	var buf [8]byte
	for _, word := range w.words {
		binary.LittleEndian.PutUint64(buf[:], word)
		out = append(out, buf[:]...)
	}
	if hasTail {
		binary.LittleEndian.PutUint64(buf[:], w.cur)
		// Only emit the bytes that carry data.
		nb := (w.nbits + 7) / 8
		out = append(out, buf[:nb]...)
	}
	return out
}

// Reset discards all written bits, retaining allocated capacity.
func (w *Writer) Reset() {
	w.words = w.words[:0]
	w.cur = 0
	w.nbits = 0
	w.total = 0
}

// Reader consumes bits from a byte slice produced by Writer.Bytes.
type Reader struct {
	data  []byte
	cur   uint64 // current word
	nbits uint   // bits remaining in cur
	pos   int    // byte offset of next load
	read  uint64 // total bits consumed
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
	r.read++
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
		r.read += uint64(n)
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
	r.read += uint64(n)
	return v, nil
}

// BitsRead reports the total number of bits consumed.
func (r *Reader) BitsRead() uint64 { return r.read }
