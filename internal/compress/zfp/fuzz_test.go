package zfp

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/bitstream"
	"repro/internal/compress"
)

// FuzzDecompress feeds arbitrary bytes to the ZFP decoder, seeded with
// valid round-trip payloads in 1-D/2-D/3-D. The decoder must never panic
// and must never report more values than the payload could plausibly
// encode.
func FuzzDecompress(f *testing.F) {
	c := New()
	data := make([]float64, 512)
	for i := range data {
		data[i] = math.Sin(float64(i) / 7)
	}
	for _, dims := range [][]int{{512}, {16, 32}, {8, 8, 8}} {
		if buf, err := c.Compress(data, dims, compress.AbsBound(1e-4)); err == nil {
			f.Add(buf)
		}
	}
	// All-zero data exercises the one-bit empty-block path.
	if buf, err := c.Compress(make([]float64, 64), []int{64}, compress.AbsBound(1e-4)); err == nil {
		f.Add(buf)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, buf []byte) {
		out, err := c.Decompress(buf)
		if err == nil && len(buf) > 0 && len(out) > compress.MaxExpansion*len(buf) {
			t.Fatalf("decoded %d values from %d bytes", len(out), len(buf))
		}
	})
}

// checkIntsCoder holds encodeInts/decodeInts to the oracle on one block of
// 4^dims codes u, given in block order: the bytes must be the oracle's, and
// both decoders must return u masked to the planes maxprec keeps.
func checkIntsCoder(t *testing.T, dims, maxprec int, u []uint64) {
	t.Helper()
	pm := perms[dims]
	ref := bitstream.NewWriter(nil)
	oracleEncodeInts(ref, u, maxprec, pm)
	want := ref.Bytes()

	var v [64]uint64
	for i, p := range pm {
		v[i] = u[p]
	}
	w := bitstream.NewWriter(nil)
	encodeInts(w, &v, dims, maxprec)
	if got := w.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("dims=%d maxprec=%d: encodeInts diverges from the oracle (%x vs %x)", dims, maxprec, got, want)
	}

	kept := ^uint64(0) << uint(intprec-maxprec)
	back := make([]uint64, len(u))
	if err := oracleDecodeInts(bitstream.NewReader(want), back, maxprec, pm); err != nil {
		t.Fatalf("dims=%d maxprec=%d: oracle decode: %v", dims, maxprec, err)
	}
	if err := decodeInts(bitstream.NewReader(want), &v, dims, maxprec); err != nil {
		t.Fatalf("dims=%d maxprec=%d: decodeInts: %v", dims, maxprec, err)
	}
	for i, p := range pm {
		if v[i] != u[p]&kept || back[p] != u[p]&kept {
			t.Fatalf("dims=%d maxprec=%d coeff=%d: decodeInts %#x, oracle %#x, want %#x", dims, maxprec, p, v[i], back[p], u[p]&kept)
		}
	}
}

// FuzzIntsCoder compares the word-at-a-time bit-plane coder with the oracle
// on arbitrary coefficient words at every rank and precision, and decodes
// the raw input as a hostile stream with both decoders: same verdict, same
// words.
func FuzzIntsCoder(f *testing.F) {
	f.Add(uint8(2), uint8(64), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add(uint8(1), uint8(20), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(3), uint8(64), bytes.Repeat([]byte{0x55, 0, 0, 0, 0, 0, 0, 0xaa}, 64))
	f.Add(uint8(3), uint8(33), []byte{})

	f.Fuzz(func(t *testing.T, rank, prec uint8, words []byte) {
		dims, maxprec := 1+int(rank%3), int(prec%65)
		size := 1 << (2 * dims)
		u := make([]uint64, size)
		var word [8]byte
		for i := range u {
			copy(word[:], words[min(8*i, len(words)):])
			u[i] = binary.LittleEndian.Uint64(word[:])
			clear(word[:])
		}
		checkIntsCoder(t, dims, maxprec, u)

		back := make([]uint64, size)
		var v [64]uint64
		rerr := oracleDecodeInts(bitstream.NewReader(words), back, maxprec, perms[dims])
		err := decodeInts(bitstream.NewReader(words), &v, dims, maxprec)
		if (err == nil) != (rerr == nil) {
			t.Fatalf("dims=%d maxprec=%d: decodeInts err %v, oracle err %v", dims, maxprec, err, rerr)
		}
		if err != nil {
			return
		}
		for i, p := range perms[dims] {
			if v[i] != back[p] {
				t.Fatalf("dims=%d maxprec=%d coeff=%d: decodeInts %#x, oracle %#x", dims, maxprec, p, v[i], back[p])
			}
		}
	})
}
