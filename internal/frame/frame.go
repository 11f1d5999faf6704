// Package frame is the one bounded reader under every buffer parser in the
// repo: the codec headers, the mesh structure blob, the container envelope,
// the zTAC frame and the ZMT1 / ZMM1 wire grammars are field lists over it.
//
// A Reader latches: the first read that cannot be satisfied — a truncated or
// padded varint, a fixed-width field or a declared length running past the
// end, a declared count the remaining bytes could not hold — marks it bad,
// and every later read returns zero. A parser therefore reads its fields in
// order and asks Bad once (or after a field whose failure it reports by
// name); it maps Bad to the sentinel its package already exports.
package frame

import (
	"encoding/binary"
	"hash/crc32"
)

// castagnoli is the repo's only CRC-32C table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC-32C every self-checking grammar in the repo stores.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Reader reads fields off the front of a byte slice. The values it returns
// alias the slice.
type Reader struct {
	buf []byte
	bad bool
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Bad reports whether any read so far failed.
func (r *Reader) Bad() bool { return r.bad }

// Len is the number of unread bytes; 0 once bad.
func (r *Reader) Len() int { return len(r.buf) }

// Rest returns the unread bytes without consuming them; nil once bad.
func (r *Reader) Rest() []byte { return r.buf }

func (r *Reader) fail() {
	r.buf, r.bad = nil, true
}

// Uvarint reads an unsigned LEB128 integer in its minimal encoding. A padded
// varint (trailing zero continuation groups) re-encodes the same value in
// more bytes, which would let distinct byte strings parse alike; every writer
// in the repo uses binary.AppendUvarint, so each grammar admits exactly one
// serialization.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 || (n > 1 && r.buf[n-1] == 0) {
		r.fail()
		return 0
	}
	r.buf = r.buf[n:]
	return v
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.Bytes(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.Bytes(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Bytes reads the next n bytes; n is typically a length the input declared,
// so it is compared with what remains before any slice is taken.
func (r *Reader) Bytes(n uint64) []byte {
	if r.bad || n > uint64(len(r.buf)) {
		r.fail()
		return nil
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	return b
}

// Count reads a uvarint element count whose elements each occupy at least
// minBytesEach (> 0) of the bytes that follow, and fails when the remaining
// bytes could not hold that many — before the caller sizes a slice from it.
func (r *Reader) Count(minBytesEach int) int {
	n := r.Uvarint()
	if n > uint64(len(r.buf)/minBytesEach) {
		r.fail()
		return 0
	}
	return int(n)
}
