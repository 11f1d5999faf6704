package bitstream

import (
	"testing"
)

// FuzzReader drives the bit reader with arbitrary data and an op script:
// every read either succeeds (and advances BitsRead by exactly the request)
// or returns ErrShortStream — never a panic, and never more bits than the
// buffer holds.
func FuzzReader(f *testing.F) {
	f.Add([]byte{0xff, 0x00, 0xaa}, []byte{1, 7, 64, 3})
	f.Add([]byte{}, []byte{1})
	f.Add([]byte{0x55}, []byte{0, 8, 8})

	f.Fuzz(func(t *testing.T, data []byte, ops []byte) {
		r := NewReader(data)
		limit := uint64(len(data)) * 8
		for _, op := range ops {
			before := r.BitsRead()
			switch {
			case op%65 == 0:
				if _, err := r.ReadBit(); err != nil {
					return
				}
				if r.BitsRead() != before+1 {
					t.Fatalf("ReadBit advanced %d bits", r.BitsRead()-before)
				}
			default:
				n := uint(op % 65)
				if _, err := r.ReadBits(n); err != nil {
					return
				}
				if r.BitsRead() != before+uint64(n) {
					t.Fatalf("ReadBits(%d) advanced %d bits", n, r.BitsRead()-before)
				}
			}
			if r.BitsRead() > limit {
				t.Fatalf("read %d bits from a %d-bit buffer", r.BitsRead(), limit)
			}
		}
	})
}
