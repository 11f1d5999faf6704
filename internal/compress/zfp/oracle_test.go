package zfp

// The plain reference bit-plane coder: it rebuilds each plane with a
// size-long gather in the block's own order and walks the group test one
// WriteBit/ReadBit at a time. Its bytes are the format; encodeInts and
// decodeInts must match it bit for bit (FuzzIntsCoder).

import "repro/internal/bitstream"

// oracleEncodeInts is ZFP's embedded bit-plane coder: planes are emitted from the
// most significant down to kmin; within a plane, bits of already-significant
// coefficients are sent verbatim, and the rest of the plane is group-tested
// with a unary run-length code.
func oracleEncodeInts(w *bitstream.Writer, u []uint64, maxprec int, pm []int) {
	size := len(u)
	kmin := intprec - maxprec
	n := 0
	for k := intprec - 1; k >= kmin; k-- {
		// Step 1: extract bit plane k (in sequency order).
		var x uint64
		for i := 0; i < size; i++ {
			x |= ((u[pm[i]] >> uint(k)) & 1) << uint(i)
		}
		// Step 2: first n bits verbatim.
		w.WriteBits(x, uint(n))
		x >>= uint(n)
		// Step 3: unary run-length encode the remainder. Each group-test
		// bit says whether any not-yet-significant coefficient has this
		// plane's bit set; if so, zero positions are walked explicitly and
		// the significant position is marked (implied for the final slot).
		for n < size {
			if x == 0 {
				w.WriteBit(0)
				break
			}
			w.WriteBit(1)
			for n < size-1 && x&1 == 0 {
				w.WriteBit(0)
				x >>= 1
				n++
			}
			if n < size-1 {
				w.WriteBit(1)
			}
			x >>= 1
			n++
		}
	}
}

// oracleDecodeInts inverts oracleEncodeInts.
func oracleDecodeInts(r *bitstream.Reader, u []uint64, maxprec int, pm []int) error {
	size := len(u)
	kmin := intprec - maxprec
	n := 0
	for k := intprec - 1; k >= kmin; k-- {
		x, err := r.ReadBits(uint(n))
		if err != nil {
			return err
		}
		for n < size {
			gb, err := r.ReadBit()
			if err != nil {
				return err
			}
			if gb == 0 {
				break
			}
			// Walk zero positions until the significant one (implied when
			// only the final slot remains).
			for n < size-1 {
				b, err := r.ReadBit()
				if err != nil {
					return err
				}
				if b != 0 {
					break
				}
				n++
			}
			x |= 1 << uint(n)
			n++
		}
		// Deposit plane.
		for i := 0; i < size && x != 0; i++ {
			u[pm[i]] |= (x & 1) << uint(k)
			x >>= 1
		}
	}
	return nil
}
