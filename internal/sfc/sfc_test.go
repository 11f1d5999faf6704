package sfc

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Per-dimension bit budgets at the top of each curve's range: 2-D curves pack
// two 31-bit coordinates, 3-D curves three 21-bit coordinates.
const (
	maxBits2D = 31
	maxBits3D = 21
)

func curves2D() []Curve { return []Curve{Morton2D{}, Hilbert2D{}, RowMajor{}} }
func curves3D() []Curve { return []Curve{Morton3D{}, Hilbert3D{}, RowMajor{}} }

func TestNew(t *testing.T) {
	want := map[string][2]Curve{
		"morton":   {Morton2D{}, Morton3D{}},
		"hilbert":  {Hilbert2D{}, Hilbert3D{}},
		"rowmajor": {RowMajor{}, RowMajor{}},
	}
	for name, byDims := range want {
		for i, dims := range []int{2, 3} {
			c, err := New(name, dims)
			if err != nil {
				t.Fatalf("New(%q, %d): %v", name, dims, err)
			}
			if c != byDims[i] {
				t.Fatalf("New(%q, %d) returned %T, want %T", name, dims, c, byDims[i])
			}
		}
	}
	if _, err := New("peano", 2); err == nil {
		t.Fatal("expected error for unknown curve")
	}
	if _, err := New("morton", 4); err == nil {
		t.Fatal("expected error for unsupported dims")
	}
}

// Every curve must be a bijection on the full lattice.
func TestBijection(t *testing.T) {
	const bits = 3 // 8x8 and 8x8x8 lattices, exhaustive
	for _, c := range curves2D() {
		seen := make(map[uint64][2]uint32)
		for y := uint32(0); y < 8; y++ {
			for x := uint32(0); x < 8; x++ {
				idx := c.Index([3]uint32{x, y, 0}, bits)
				if prev, dup := seen[idx]; dup {
					t.Fatalf("%T: index %d for both %v and (%d,%d)", c, idx, prev, x, y)
				}
				seen[idx] = [2]uint32{x, y}
				if back := c.Coords(idx, bits); back != [3]uint32{x, y, 0} {
					t.Fatalf("%T: Coords(Index(%d,%d)) = %v", c, x, y, back)
				}
			}
		}
		if len(seen) != 64 {
			t.Fatalf("%T covered %d of 64 indices", c, len(seen))
		}
	}
	for _, c := range curves3D() {
		seen := make(map[uint64]bool)
		for z := uint32(0); z < 8; z++ {
			for y := uint32(0); y < 8; y++ {
				for x := uint32(0); x < 8; x++ {
					idx := c.Index([3]uint32{x, y, z}, bits)
					if seen[idx] {
						t.Fatalf("%T: duplicate index %d", c, idx)
					}
					seen[idx] = true
					if back := c.Coords(idx, bits); back != [3]uint32{x, y, z} {
						t.Fatalf("%T: round trip (%d,%d,%d) -> %v", c, x, y, z, back)
					}
				}
			}
		}
		if len(seen) != 512 {
			t.Fatalf("%T covered %d of 512 indices", c, len(seen))
		}
	}
}

// The indices of a curve over a 2^bits lattice must be exactly 0..N-1.
func TestIndexRange(t *testing.T) {
	const bits = 4
	for _, c := range curves2D() {
		var max uint64
		for y := uint32(0); y < 16; y++ {
			for x := uint32(0); x < 16; x++ {
				if idx := c.Index([3]uint32{x, y, 0}, bits); idx > max {
					max = idx
				}
			}
		}
		if max != 255 {
			t.Fatalf("%T max index = %d, want 255", c, max)
		}
	}
}

// A 2-D curve has no third axis: Coords must report z = 0 for every index of
// the lattice, at small and full bit budgets.
func TestCoords2DZeroZ(t *testing.T) {
	for _, c := range curves2D() {
		const bits = 4
		for idx := uint64(0); idx < 1<<(2*bits); idx++ {
			if got := c.Coords(idx, bits); got[2] != 0 {
				t.Fatalf("%T: Coords(%d, %d) = %v, want z = 0", c, idx, bits, got)
			}
		}
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 1000; i++ {
			idx := rng.Uint64() >> (64 - 2*maxBits2D)
			if got := c.Coords(idx, maxBits2D); got[2] != 0 {
				t.Fatalf("%T: Coords(%d, %d) = %v, want z = 0", c, idx, maxBits2D, got)
			}
		}
	}
}

// Coordinates travel by value: neither direction of any curve may allocate.
func TestCurveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact in a race build")
	}
	for _, tc := range []struct {
		curves []Curve
		bits   uint
	}{{curves2D(), maxBits2D}, {curves3D(), maxBits3D}} {
		for _, c := range tc.curves {
			p := [3]uint32{12345, 54321, 999}
			var idx uint64
			if a := testing.AllocsPerRun(100, func() { idx = c.Index(p, tc.bits) }); a != 0 {
				t.Errorf("%T.Index allocates %v per call, want 0", c, a)
			}
			if a := testing.AllocsPerRun(100, func() { p = c.Coords(idx, tc.bits) }); a != 0 {
				t.Errorf("%T.Coords allocates %v per call, want 0", c, a)
			}
		}
	}
}

// Hilbert's defining property: consecutive indices are lattice neighbours
// (Manhattan distance exactly 1). Morton does not have this property.
func TestHilbertContinuity2D(t *testing.T) {
	const bits = 5
	c := Hilbert2D{}
	prev := c.Coords(0, bits)
	for idx := uint64(1); idx < 1<<(2*bits); idx++ {
		cur := c.Coords(idx, bits)
		d := manhattan(prev, cur)
		if d != 1 {
			t.Fatalf("step %d: coords %v -> %v, distance %d", idx, prev, cur, d)
		}
		prev = cur
	}
}

func TestHilbertContinuity3D(t *testing.T) {
	const bits = 3
	c := Hilbert3D{}
	prev := c.Coords(0, bits)
	for idx := uint64(1); idx < 1<<(3*bits); idx++ {
		cur := c.Coords(idx, bits)
		if d := manhattan(prev, cur); d != 1 {
			t.Fatalf("step %d: coords %v -> %v, distance %d", idx, prev, cur, d)
		}
		prev = cur
	}
}

func manhattan(a, b [3]uint32) int {
	d := 0
	for i := range a {
		if a[i] > b[i] {
			d += int(a[i] - b[i])
		} else {
			d += int(b[i] - a[i])
		}
	}
	return d
}

// Morton 2D known values: interleaved bits.
func TestMorton2DKnown(t *testing.T) {
	cases := []struct {
		x, y uint32
		idx  uint64
	}{
		{0, 0, 0}, {1, 0, 1}, {0, 1, 2}, {1, 1, 3},
		{2, 0, 4}, {3, 0, 5}, {2, 1, 6}, {3, 1, 7},
		{0, 2, 8}, {7, 7, 63},
	}
	c := Morton2D{}
	for _, tc := range cases {
		if got := c.Index([3]uint32{tc.x, tc.y, 0}, 3); got != tc.idx {
			t.Fatalf("Morton2D(%d,%d) = %d, want %d", tc.x, tc.y, got, tc.idx)
		}
	}
}

// Morton 3D known values.
func TestMorton3DKnown(t *testing.T) {
	cases := []struct {
		x, y, z uint32
		idx     uint64
	}{
		{0, 0, 0, 0}, {1, 0, 0, 1}, {0, 1, 0, 2}, {1, 1, 0, 3},
		{0, 0, 1, 4}, {1, 1, 1, 7}, {2, 0, 0, 8},
	}
	c := Morton3D{}
	for _, tc := range cases {
		if got := c.Index([3]uint32{tc.x, tc.y, tc.z}, 2); got != tc.idx {
			t.Fatalf("Morton3D(%d,%d,%d) = %d, want %d", tc.x, tc.y, tc.z, got, tc.idx)
		}
	}
}

// Hilbert 2D first-order curve: the 2x2 case visits (0,0),(0,1),(1,1),(1,0).
func TestHilbert2DFirstOrder(t *testing.T) {
	c := Hilbert2D{}
	want := [][3]uint32{{0, 0, 0}, {0, 1, 0}, {1, 1, 0}, {1, 0, 0}}
	for i, w := range want {
		if got := c.Coords(uint64(i), 1); got != w {
			t.Fatalf("hilbert2d order-1 step %d = %v, want %v", i, got, w)
		}
	}
}

// property: random high-coordinate round trips at large bit budgets.
func TestRoundTripQuick(t *testing.T) {
	f2 := func(x, y uint32) bool {
		const bits = maxBits2D
		mask := uint32(1)<<bits - 1
		p := [3]uint32{x & mask, y & mask, 0}
		for _, c := range curves2D() {
			if c.Coords(c.Index(p, bits), bits) != p {
				return false
			}
		}
		return true
	}
	f3 := func(x, y, z uint32) bool {
		const bits = maxBits3D
		mask := uint32(1)<<bits - 1
		p := [3]uint32{x & mask, y & mask, z & mask}
		for _, c := range curves3D() {
			if c.Coords(c.Index(p, bits), bits) != p {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f2, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(f3, nil); err != nil {
		t.Fatal(err)
	}
}

// Locality sanity: average distance between consecutive curve points must be
// dramatically better for Hilbert than for row-major scan on a 2-D lattice.
func TestLocalityOrdering(t *testing.T) {
	const bits = 5
	avgJump := func(c Curve) float64 {
		total := 0
		n := uint64(1) << (2 * bits)
		prev := c.Coords(0, bits)
		for i := uint64(1); i < n; i++ {
			cur := c.Coords(i, bits)
			total += manhattan(prev, cur)
			prev = cur
		}
		return float64(total) / float64(n-1)
	}
	h := avgJump(Hilbert2D{})
	m := avgJump(Morton2D{})
	if h != 1.0 {
		t.Fatalf("hilbert average jump = %v, want exactly 1", h)
	}
	if m <= h {
		t.Fatalf("morton average jump %v should exceed hilbert %v", m, h)
	}
}

func BenchmarkMorton2DIndex(b *testing.B) {
	c := Morton2D{}
	coords := [3]uint32{12345, 54321, 0}
	for i := 0; i < b.N; i++ {
		_ = c.Index(coords, 31)
	}
}

func BenchmarkHilbert2DIndex(b *testing.B) {
	c := Hilbert2D{}
	coords := [3]uint32{12345, 54321, 0}
	for i := 0; i < b.N; i++ {
		_ = c.Index(coords, 31)
	}
}

func BenchmarkHilbert3DIndex(b *testing.B) {
	c := Hilbert3D{}
	rng := rand.New(rand.NewSource(1))
	coords := [3]uint32{uint32(rng.Intn(1 << 21)), uint32(rng.Intn(1 << 21)), uint32(rng.Intn(1 << 21))}
	for i := 0; i < b.N; i++ {
		_ = c.Coords(c.Index(coords, 21), 21)
	}
}
