package sfc

// Morton2D is the 2-D Z-order curve: bits of x and y are interleaved,
// x occupying the even bit positions.
type Morton2D struct{}

// part1by1 spreads the low 32 bits of v so they occupy the even positions.
func part1by1(v uint64) uint64 {
	v &= 0xffffffff
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	v = (v | v<<1) & 0x5555555555555555
	return v
}

// compact1by1 inverts part1by1.
func compact1by1(v uint64) uint64 {
	v &= 0x5555555555555555
	v = (v | v>>1) & 0x3333333333333333
	v = (v | v>>2) & 0x0f0f0f0f0f0f0f0f
	v = (v | v>>4) & 0x00ff00ff00ff00ff
	v = (v | v>>8) & 0x0000ffff0000ffff
	v = (v | v>>16) & 0x00000000ffffffff
	return v
}

// Index implements Curve.
func (Morton2D) Index(c [3]uint32, bits uint) uint64 {
	return part1by1(uint64(c[0])) | part1by1(uint64(c[1]))<<1
}

// Coords implements Curve.
func (Morton2D) Coords(index uint64, bits uint) [3]uint32 {
	return [3]uint32{uint32(compact1by1(index)), uint32(compact1by1(index >> 1)), 0}
}

// Morton3D is the 3-D Z-order curve with x in bit positions ≡ 0 (mod 3).
type Morton3D struct{}

// part1by2 spreads the low 21 bits of v two positions apart.
func part1by2(v uint64) uint64 {
	v &= 0x1fffff
	v = (v | v<<32) & 0x1f00000000ffff
	v = (v | v<<16) & 0x1f0000ff0000ff
	v = (v | v<<8) & 0x100f00f00f00f00f
	v = (v | v<<4) & 0x10c30c30c30c30c3
	v = (v | v<<2) & 0x1249249249249249
	return v
}

// compact1by2 inverts part1by2.
func compact1by2(v uint64) uint64 {
	v &= 0x1249249249249249
	v = (v | v>>2) & 0x10c30c30c30c30c3
	v = (v | v>>4) & 0x100f00f00f00f00f
	v = (v | v>>8) & 0x1f0000ff0000ff
	v = (v | v>>16) & 0x1f00000000ffff
	v = (v | v>>32) & 0x1fffff
	return v
}

// Index implements Curve.
func (Morton3D) Index(c [3]uint32, bits uint) uint64 {
	return part1by2(uint64(c[0])) | part1by2(uint64(c[1]))<<1 | part1by2(uint64(c[2]))<<2
}

// Coords implements Curve.
func (Morton3D) Coords(index uint64, bits uint) [3]uint32 {
	return [3]uint32{
		uint32(compact1by2(index)),
		uint32(compact1by2(index >> 1)),
		uint32(compact1by2(index >> 2)),
	}
}
