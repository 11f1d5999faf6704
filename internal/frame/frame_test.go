package frame

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

func TestUvarintMinimalOnly(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 300, 1 << 32, 1 << 63, math.MaxUint64} {
		enc := binary.AppendUvarint(nil, v)
		r := NewReader(append(enc, 0xAA))
		if got := r.Uvarint(); got != v || r.Bad() || r.Len() != 1 {
			t.Errorf("%d: read %d, bad %v, %d bytes left", v, got, r.Bad(), r.Len())
		}
		// The same value with its last group continued into zero groups.
		padded := append([]byte(nil), enc...)
		padded[len(padded)-1] |= 0x80
		for _, pad := range [][]byte{{0x00}, {0x80, 0x00}} {
			if len(padded)+len(pad) > binary.MaxVarintLen64 {
				continue
			}
			buf := append(append([]byte(nil), padded...), pad...)
			if got, n := binary.Uvarint(buf); got != v || n != len(buf) {
				t.Fatalf("%d: padded form % x is not the same value to encoding/binary", v, buf)
			}
			r := NewReader(buf)
			if got := r.Uvarint(); got != 0 || !r.Bad() {
				t.Errorf("%d: padded form % x read as %d, bad %v", v, buf, got, r.Bad())
			}
		}
	}
	for name, buf := range map[string][]byte{
		"empty":       nil,
		"unfinished":  {0x80, 0x80},
		"overflow":    {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02},
		"eleven long": {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01},
	} {
		r := NewReader(buf)
		if got := r.Uvarint(); got != 0 || !r.Bad() {
			t.Errorf("%s: read %d, bad %v", name, got, r.Bad())
		}
	}
}

func TestFixedWidthLittleEndian(t *testing.T) {
	r := NewReader([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A, 0x0B, 0x0C, 0x0D})
	if b := r.Byte(); b != 0x01 {
		t.Fatalf("Byte = %#x", b)
	}
	if v := r.U32(); v != 0x05040302 {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 0x0D0C0B0A09080706 {
		t.Fatalf("U64 = %#x", v)
	}
	if r.Bad() || r.Len() != 0 {
		t.Fatalf("bad %v, %d left", r.Bad(), r.Len())
	}
	for _, c := range []struct {
		name  string
		width int
		read  func(*Reader) uint64
	}{
		{"Byte", 1, func(r *Reader) uint64 { return uint64(r.Byte()) }},
		{"U32", 4, func(r *Reader) uint64 { return uint64(r.U32()) }},
		{"U64", 8, func(r *Reader) uint64 { return r.U64() }},
	} {
		short := NewReader(bytes.Repeat([]byte{0xFF}, c.width-1))
		if v := c.read(&short); v != 0 || !short.Bad() {
			t.Errorf("%s on %d bytes: %#x, bad %v", c.name, c.width-1, v, short.Bad())
		}
	}
}

func TestBytesAndCountAgainstRemaining(t *testing.T) {
	buf := []byte{3, 'a', 'b', 'c', 'd'}
	r := NewReader(buf)
	if got := r.Bytes(r.Uvarint()); string(got) != "abc" || r.Len() != 1 {
		t.Fatalf("Bytes = %q, %d left", got, r.Len())
	}
	if &r.Rest()[0] != &buf[4] {
		t.Fatal("Rest does not alias the input")
	}
	if got := r.Bytes(2); got != nil || !r.Bad() {
		t.Fatalf("Bytes past the end = %q, bad %v", got, r.Bad())
	}
	huge := NewReader([]byte{1, 2, 3})
	if got := huge.Bytes(math.MaxUint64); got != nil || !huge.Bad() {
		t.Fatalf("Bytes(MaxUint64) = %q, bad %v", got, huge.Bad())
	}

	// Twelve bytes follow the count: four 3-byte elements fit, five do not.
	for _, c := range []struct {
		count uint64
		ok    bool
	}{{0, true}, {4, true}, {5, false}, {1 << 60, false}} {
		r := NewReader(append(binary.AppendUvarint(nil, c.count), make([]byte, 12)...))
		got := r.Count(3)
		if c.ok != !r.Bad() || (c.ok && uint64(got) != c.count) || (!c.ok && got != 0) {
			t.Errorf("Count(3) of %d over 12 bytes = %d, bad %v", c.count, got, r.Bad())
		}
	}
}

func TestLatches(t *testing.T) {
	r := NewReader([]byte{0x80, 0x00, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	r.Uvarint() // padded zero
	if !r.Bad() || r.Len() != 0 || r.Rest() != nil {
		t.Fatalf("after a failed read: bad %v, len %d, rest %v", r.Bad(), r.Len(), r.Rest())
	}
	if r.Uvarint() != 0 || r.Byte() != 0 || r.U32() != 0 || r.U64() != 0 || r.Bytes(0) != nil || r.Count(1) != 0 || !r.Bad() {
		t.Fatal("a bad reader returned a value or recovered")
	}
}

func TestChecksumIsCastagnoli(t *testing.T) {
	// The CRC catalogue's check input and its CRC-32C.
	if got := Checksum([]byte("123456789")); got != 0xE3069283 {
		t.Fatalf("Checksum = %#08x, want 0xE3069283", got)
	}
}

// ref is the plain model FuzzReader compares against: an offset into the
// buffer, a flag, and a byte-at-a-time LEB128 loop.
type ref struct {
	buf []byte
	off int
	bad bool
}

func (m *ref) rest() []byte {
	if m.bad {
		return nil
	}
	return m.buf[m.off:]
}

func (m *ref) take(n uint64) []byte {
	if m.bad || n > uint64(len(m.buf)-m.off) {
		m.bad = true
		return nil
	}
	b := m.buf[m.off : m.off+int(n)]
	m.off += int(n)
	return b
}

func (m *ref) fixed(width int) uint64 {
	var v uint64
	for i, b := range m.take(uint64(width)) {
		v |= uint64(b) << (8 * i)
	}
	return v
}

func (m *ref) uvarint() uint64 {
	var v uint64
	for i, b := range m.rest() {
		if i == 9 && b > 1 {
			break // the tenth group holds one bit
		}
		v |= uint64(b&0x7F) << (7 * i)
		if b < 0x80 {
			if i > 0 && b == 0 {
				break // padded
			}
			m.off += i + 1
			return v
		}
	}
	m.bad = true
	return 0
}

func (m *ref) count(min int) uint64 {
	n := m.uvarint()
	if m.bad || n > uint64((len(m.buf)-m.off)/min) {
		m.bad = true
		return 0
	}
	return n
}

// FuzzReader drives a Reader and the model with the same op script. Every
// value, the flag and the unread bytes must agree after each op; a reader
// that went bad stays bad; Bytes and Count never succeed past Len.
func FuzzReader(f *testing.F) {
	f.Add(binary.AppendUvarint([]byte{7, 1, 2, 3, 4}, 300), []byte{1, 2, 0, 4, 0})
	f.Add([]byte{0x85, 0x80, 0x00, 9, 9}, []byte{0, 1, 1})
	f.Add(append(binary.AppendUvarint(nil, 1<<28), 1, 2, 3), []byte{5, 0, 4, 200})
	f.Add(append([]byte{2, 0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF, 0x11, 0x22}, make([]byte, 8)...), []byte{5, 3, 3, 3, 4, 1})
	f.Fuzz(func(t *testing.T, data, ops []byte) {
		r, m := NewReader(data), ref{buf: data}
		for i := 0; i < len(ops); i++ {
			wasBad, before := r.Bad(), r.Len()
			var got, want uint64
			switch ops[i] % 6 {
			case 0:
				got, want = r.Uvarint(), m.uvarint()
			case 1:
				got, want = uint64(r.Byte()), m.fixed(1)
			case 2:
				got, want = uint64(r.U32()), m.fixed(4)
			case 3:
				got, want = r.U64(), m.fixed(8)
			case 4:
				var n uint64
				if i++; i < len(ops) {
					n = uint64(ops[i])
				}
				if n >= 128 {
					n = 1 << (n % 64) // mostly lengths no buffer holds
				}
				b, wb := r.Bytes(n), m.take(n)
				if !bytes.Equal(b, wb) {
					t.Fatalf("op %d: Bytes(%d) = % x, model % x", i, n, b, wb)
				}
				if !r.Bad() && n > uint64(before) {
					t.Fatalf("op %d: Bytes(%d) succeeded with %d bytes left", i, n, before)
				}
			case 5:
				min := 1
				if i++; i < len(ops) {
					min += int(ops[i] % 8)
				}
				got, want = uint64(r.Count(min)), m.count(min)
				if !r.Bad() && got*uint64(min) > uint64(r.Len()) {
					t.Fatalf("op %d: Count(%d) = %d with %d bytes left", i, min, got, r.Len())
				}
			}
			if got != want || r.Bad() != m.bad || !bytes.Equal(r.Rest(), m.rest()) || r.Len() != len(m.rest()) {
				t.Fatalf("op %d: read %d bad %v rest % x; model %d bad %v rest % x",
					i, got, r.Bad(), r.Rest(), want, m.bad, m.rest())
			}
			if wasBad && !r.Bad() {
				t.Fatalf("op %d: reader recovered from bad", i)
			}
		}
	})
}
