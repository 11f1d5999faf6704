package bitstream

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleBits(t *testing.T) {
	w := NewWriter(nil)
	pattern := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0}
	for _, b := range pattern {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range pattern {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d = %d, want %d", i, got, want)
		}
	}
}

func TestWriteBitsBoundaries(t *testing.T) {
	cases := []struct {
		v uint64
		n uint
	}{
		{0, 1}, {1, 1}, {0xff, 8}, {0x1234, 16}, {0xdeadbeef, 32},
		{0xffffffffffffffff, 64}, {1, 64}, {0, 64}, {0x7, 3}, {0x15, 5},
	}
	w := NewWriter(nil)
	for _, c := range cases {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes())
	for i, c := range cases {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := c.v
		if c.n < 64 {
			want &= (1 << c.n) - 1
		}
		if got != want {
			t.Fatalf("case %d: got %#x, want %#x", i, got, want)
		}
	}
}

func TestWriteBitsMasksHighBits(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0xffff, 4) // only low 4 bits should land
	w.WriteBits(0, 4)
	r := NewReader(w.Bytes())
	got, err := r.ReadBits(8)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x0f {
		t.Fatalf("got %#x, want 0x0f", got)
	}
}

func TestShortStream(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0xab, 8)
	r := NewReader(w.Bytes())
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(8); err != ErrShortStream {
		t.Fatalf("got %v, want ErrShortStream", err)
	}
}

func TestEmptyReader(t *testing.T) {
	r := NewReader(nil)
	if _, err := r.ReadBit(); err != ErrShortStream {
		t.Fatalf("got %v, want ErrShortStream", err)
	}
}

// The stream is appended to the writer's buffer: what the caller put there
// first comes back unchanged in front of it.
func TestAppendsAfterPrefix(t *testing.T) {
	w := NewWriter([]byte("head"))
	w.WriteBits(0x5, 3)
	b := w.Bytes()
	if string(b[:4]) != "head" || len(b) != 5 {
		t.Fatalf("got %q, want \"head\" and one byte", b)
	}
	got, err := NewReader(b[4:]).ReadBits(3)
	if err != nil || got != 0x5 {
		t.Fatalf("got %#x, %v; want 0x5", got, err)
	}
}

func TestBytesPadding(t *testing.T) {
	for _, c := range []struct{ bits, bytes int }{{0, 0}, {1, 1}, {9, 2}, {64, 8}, {65, 9}} {
		w := NewWriter(nil)
		for i := 0; i < c.bits; i++ {
			w.WriteBit(1)
		}
		if b := w.Bytes(); len(b) != c.bytes {
			t.Fatalf("%d bits serialize to %d bytes, want %d", c.bits, len(b), c.bytes)
		}
	}
}

func TestCrossWordBoundary(t *testing.T) {
	// Force writes that straddle 64-bit word boundaries.
	w := NewWriter(nil)
	w.WriteBits(0x1, 60)
	w.WriteBits(0xff, 8) // straddles word 0/1
	w.WriteBits(0xabcdef, 24)
	r := NewReader(w.Bytes())
	if v, _ := r.ReadBits(60); v != 0x1 {
		t.Fatalf("first field = %#x", v)
	}
	if v, _ := r.ReadBits(8); v != 0xff {
		t.Fatalf("straddling field = %#x", v)
	}
	if v, _ := r.ReadBits(24); v != 0xabcdef {
		t.Fatalf("third field = %#x", v)
	}
}

// property: any sequence of (value, width) writes reads back identically.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%64) + 1
		vals := make([]uint64, count)
		widths := make([]uint, count)
		w := NewWriter(nil)
		for i := range vals {
			widths[i] = uint(rng.Intn(64)) + 1
			vals[i] = rng.Uint64()
			if widths[i] < 64 {
				vals[i] &= (1 << widths[i]) - 1
			}
			w.WriteBits(vals[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMixedBitAndBits(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBit(1)
	w.WriteBits(0x2a, 7)
	w.WriteBit(0)
	w.WriteBits(0xffffffffffffffff, 64)
	r := NewReader(w.Bytes())
	if b, _ := r.ReadBit(); b != 1 {
		t.Fatal("bit 0")
	}
	if v, _ := r.ReadBits(7); v != 0x2a {
		t.Fatal("field 1")
	}
	if b, _ := r.ReadBit(); b != 0 {
		t.Fatal("bit 2")
	}
	if v, _ := r.ReadBits(64); v != 0xffffffffffffffff {
		t.Fatal("field 3")
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(make([]byte, 0, 1<<20))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%100000 == 0 {
			w = NewWriter(w.buf[:0])
		}
		w.WriteBits(uint64(i), 13)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(nil)
	for i := 0; i < 100000; i++ {
		w.WriteBits(uint64(i), 13)
	}
	data := w.Bytes()
	b.ResetTimer()
	r := NewReader(data)
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadBits(13); err != nil {
			r = NewReader(data)
		}
	}
}

// property: Peek and Skip interleaved with ReadBit and ReadBits see the
// stream's bits in order. Peek holds at least 57 valid bits, or every bit
// left, with zeros above them, and BitsRead counts what was consumed.
func TestPeekSkipQuick(t *testing.T) {
	f := func(data []byte, ops []uint8) bool {
		bit := func(i uint64) uint64 { return uint64(data[i/8]>>(i%8)) & 1 }
		total := uint64(len(data)) * 8
		r := NewReader(data)
		pos := uint64(0)
		for _, op := range ops {
			switch n := uint(op % 65); op % 3 {
			case 0:
				b, avail := r.Peek()
				if a := uint64(avail); a < min(total-pos, 57) || a > total-pos || a < 64 && b>>a != 0 {
					return false
				}
				for i := uint64(0); i < uint64(avail); i++ {
					if b>>i&1 != bit(pos+i) {
						return false
					}
				}
				n = min(n, avail)
				r.Skip(n)
				pos += uint64(n)
			case 1:
				b, err := r.ReadBit()
				if pos == total {
					return err == ErrShortStream
				}
				if err != nil || uint64(b) != bit(pos) {
					return false
				}
				pos++
			default:
				v, err := r.ReadBits(n)
				if pos+uint64(n) > total {
					return err == ErrShortStream
				}
				for i := uint64(0); i < uint64(n); i++ {
					if v>>i&1 != bit(pos+i) {
						return false
					}
				}
				if err != nil {
					return false
				}
				pos += uint64(n)
			}
			if r.BitsRead() != pos {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
