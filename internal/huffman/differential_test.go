package huffman

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
)

// checkDifferential holds Encode/Decode to the plain reference on one
// stream: same error verdict, same bytes, and both decoders return symbols.
func checkDifferential(t testing.TB, symbols []int, alphabet int) {
	t.Helper()
	want, werr := EncodeAll(symbols, alphabet)
	got, gerr := Encode(nil, symbols, alphabet)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("alphabet %d, %d symbols: oracle err %v, Encode err %v", alphabet, len(symbols), werr, gerr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("alphabet %d, %d symbols: Encode diverges from the oracle (%d vs %d bytes)", alphabet, len(symbols), len(got), len(want))
	}
	dec, err := Decode(nil, got)
	if err != nil || !slices.Equal(dec, symbols) {
		t.Fatalf("alphabet %d, %d symbols: Decode = %d symbols, err %v", alphabet, len(symbols), len(dec), err)
	}
	if ref, err := DecodeAll(got); err != nil || !slices.Equal(ref, symbols) {
		t.Fatalf("alphabet %d, %d symbols: oracle DecodeAll = %d symbols, err %v", alphabet, len(symbols), len(ref), err)
	}
}

// quantLike draws a stream shaped like quantization codes: a cluster of the
// given spread around the alphabet's midpoint, with escapes (symbol 0) at
// the given rate.
func quantLike(rng *rand.Rand, n, alphabet int, spread, escape float64) []int {
	out := make([]int, n)
	for i := range out {
		if rng.Float64() < escape {
			continue
		}
		s := alphabet/2 + int(rng.NormFloat64()*spread)
		out[i] = min(max(s, 0), alphabet-1)
	}
	return out
}

func TestEncodeDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	uniform := func(n, alphabet int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = rng.Intn(alphabet)
		}
		return out
	}
	const wide = 200000                             // gaps of 17 and more bits in the table
	centreRun := func(n int, around ...int) []int { // n centre codes of alphabet 1024 after and before the given ones
		return slices.Concat(around, repeat([]int{512}, n), around)
	}
	cases := []struct {
		name     string
		symbols  []int
		alphabet int
	}{
		{"empty", nil, 65536},
		{"empty tiny alphabet", nil, 1},
		{"one symbol", []int{7, 7, 7, 7, 7}, 16},
		{"one escape", []int{0}, 65536},
		{"one value at the top", []int{65535}, 65536},
		{"escape plus cluster", quantLike(rng, 5000, 65536, 3, 0.05), 65536},
		{"cluster only", quantLike(rng, 64, 65536, 2, 0), 65536},
		{"alphabet 4", uniform(300, 4), 4},
		{"alphabet 256", uniform(10000, 256), 256},
		{"alphabet 65536 dense", uniform(200000, 65536), 65536},
		{"ends of a wide alphabet", []int{1, wide - 1, 1, 1, wide - 1, 0}, wide},
		{"cluster in a wide alphabet", quantLike(rng, 2000, wide, 40, 0.01), wide},
		{"run of exactly one token", centreRun(maxRun, 500), 1024},
		{"run of one token plus one", centreRun(maxRun+1, 500), 1024},
		{"run of one token less one", centreRun(maxRun-1, 500), 1024},
		{"run of several tokens", centreRun(3*maxRun+maxRun/2, 0, 513), 1024},
		{"run ending the stream", append(centreRun(0, 7, 9), centreRun(77)...), 1024},
		{"full token ending the stream", append(centreRun(0, 7), centreRun(maxRun)...), 1024},
		{"all centre", centreRun(100000), 1024},
		{"one centre", centreRun(1), 1024},
		{"runs of two only", repeat([]int{512, 512, 3}, 50), 1024}, // RUNB without RUNA
		{"escapes only", make([]int, 300), 65536},
		{"alphabet 2", uniform(300, 2), 2}, // below minFoldAlphabet: the centre is a literal
		{"alphabet 3", uniform(300, 3), 3},
		{"alphabet 6", uniform(3000, 6), 6},
		{"alphabet 4, long runs", slices.Concat(repeat([]int{2}, 2000), uniform(50, 4), repeat([]int{2}, 511)), 4},
		{"out of alphabet", []int{1, 2, 9}, 9},
		{"negative", []int{1, -1}, 9},
		{"skewed, long codes", func() []int {
			var out []int
			for s, f := 0, 1; s < 24; s, f = s+1, f*2 {
				for i := 0; i < f && i < 1<<14; i++ {
					out = append(out, 100+3*s)
				}
			}
			return out
		}(), 1024},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkDifferential(t, c.symbols, c.alphabet) })
	}
	// Two alphabets alternating through the one pooled table: whatever a
	// call leaves behind would surface in the next call's frequencies.
	for i := 0; i < 20; i++ {
		checkDifferential(t, quantLike(rng, 700, 65536, 200, 0.02), 65536)
		checkDifferential(t, uniform(50, 12), 12)
	}
}

func TestEncodeDifferentialQuick(t *testing.T) {
	f := func(seed int64, n uint16, alphaBits, spread uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := 2 << (alphaBits % 18)
		checkDifferential(t, quantLike(rng, int(n%3000), alphabet, float64(spread)+0.5, 0.03), alphabet)
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// scratchIsZero reports whether the encoder table the pool hands out next is
// all-zero, the invariant that makes span-wise work sound; RUNB's slot and
// the escape's sit outside the span and are part of it.
func scratchIsZero() bool {
	sc := encPool.Get().(*encScratch)
	defer encPool.Put(sc)
	return !slices.ContainsFunc(sc.tab, func(v uint64) bool { return v != 0 })
}

// A rejected stream must not leave counts behind: the bad symbol comes last,
// after a full stream of good ones.
func TestRejectedStreamLeavesScratchZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	good := quantLike(rng, 4000, 65536, 1.5, 0.05) // narrow: centre runs, both digits in use
	checkDifferential(t, good, 65536)              // the pool now holds a table of 64 Ki entries
	for _, bad := range []int{65536, -1, 1 << 40} {
		if _, err := Encode(nil, append(slices.Clone(good), bad), 65536); err == nil {
			t.Fatalf("symbol %d accepted", bad)
		}
		if !scratchIsZero() {
			t.Fatalf("symbol %d: pooled table not all-zero after the error", bad)
		}
		checkDifferential(t, good, 65536)
	}
	if !scratchIsZero() {
		t.Fatal("pooled table not all-zero after a successful call")
	}
}

// 16 goroutines through the shared pools; run under -race in CI.
func TestPoolsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 40 && !t.Failed(); i++ {
				alphabet := []int{4, 256, 65536, 200000}[(g+i)%4]
				symbols := quantLike(rng, 1+rng.Intn(2000), alphabet, float64(1+rng.Intn(300)), 0.02)
				want, err := EncodeAll(symbols, alphabet)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := Encode(nil, symbols, alphabet)
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: Encode diverges from the oracle (err %v)", g, err)
					return
				}
				if dec, err := Decode(nil, got); err != nil || !slices.Equal(dec, symbols) {
					t.Errorf("goroutine %d: Decode diverges (err %v)", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// forgedTable is a 10-byte stream declaring 2^28 symbols and 2^15 table
// entries and breaking off in the second.
func forgedTable() []byte {
	w := bitstream.NewWriter(nil)
	w.WriteBits(maxAlphabet, 32)
	gamma(w, 1<<15+1)
	gamma(w, 1) // symbol 0
	gamma(w, zigzag(5)+1)
	gamma(w, 2)
	return w.Bytes()
}

// allocatedBy reports the bytes one call of f allocates, after a warm-up
// call that fills the pools.
func allocatedBy(f func()) uint64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// A hostile table must not size an allocation: memory is bounded by the bits
// that encode the table, whatever alphabet and entry count it declares.
func TestForgedTableAllocatesNothing(t *testing.T) {
	data := forgedTable()
	if len(data) > 10 {
		t.Fatalf("forged table is %d bytes, want <= 10", len(data))
	}
	var err error
	got := allocatedBy(func() { _, err = Decode(nil, data) })
	if err == nil {
		t.Fatal("forged table accepted")
	}
	if got >= 64<<10 {
		t.Fatalf("forged %d-byte table allocated %d bytes, want < 64 KiB", len(data), got)
	}
}

// A hostile value count sizes the output, and a folded stream may hold more
// values than bits — but not more than maxValuesPerBit a bit. The stream
// below is a table of RUNB alone and zeros: the densest there is, 510 values
// to the byte. The largest count the guard lets through costs one int per
// value, 8·maxValuesPerBit·8 bytes per stream byte, and runs out of stream
// short of it; one more is refused before anything is sized.
func TestForgedCountAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation is not byte-exact in a race build")
	}
	const size = 1 << 12
	forged := func(n uint64) []byte {
		w := bitstream.NewWriter(nil)
		w.WriteBits(65536, 32)
		gamma(w, 1+1)
		gamma(w, 65536+1) // RUNB
		gamma(w, zigzag(1)+1)
		w.WriteBits(n, 40)
		b := w.Bytes()
		return append(b, make([]byte, size-len(b))...)
	}
	tableBits := uint64(32 + 3 + 33 + 3 + 40)
	fits := (size*8 - tableBits) * maxValuesPerBit
	for _, c := range []struct {
		n     uint64
		limit uint64
	}{
		{fits, 8 * maxValuesPerBit * 8 * size},
		{fits + 1, 0},
	} {
		data := forged(c.n)
		var err error
		got := allocatedBy(func() { _, err = Decode(nil, data) })
		if !errors.Is(err, bitstream.ErrShortStream) {
			t.Fatalf("count %d in %d bytes: err %v, want ErrShortStream", c.n, len(data), err)
		}
		if got > c.limit+64<<10 {
			t.Fatalf("count %d in %d bytes: %d bytes allocated, want <= %d + 64 KiB", c.n, len(data), got, c.limit)
		}
	}
	// The same stream with a count it does hold decodes, 510 values a byte.
	n := uint64(size*8-tableBits) / runDigits * maxRun
	if got, err := Decode(nil, forged(n)); err != nil || uint64(len(got)) != n {
		t.Fatalf("count %d: %d values, err %v", n, len(got), err)
	}
}

// FuzzEncodeAllDifferential derives a symbol stream and an alphabet from the
// input and holds Encode/Decode to the reference; it then feeds the raw input
// to both decoders, which must agree on the verdict and on the symbols.
func FuzzEncodeAllDifferential(f *testing.F) {
	f.Add([]byte{}, uint8(15), uint16(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint8(1), uint16(0))
	f.Add([]byte("escape plus cluster, escape plus cluster"), uint8(15), uint16(40))
	f.Add(bytes.Repeat([]byte{0xff, 0x00, 0x7f}, 300), uint8(17), uint16(3))
	f.Add(forgedTable(), uint8(7), uint16(1))
	if valid, err := Encode(nil, []int{0, 9, 9, 9, 8, 10, 0, 9}, 65536); err == nil {
		f.Add(valid, uint8(15), uint16(9))
	}
	f.Fuzz(func(t *testing.T, data []byte, alphaBits uint8, spread uint16) {
		// Mostly small alphabets: the reference's cost is the alphabet's size.
		alphabet := []int{2, 4, 12, 256, 1024, 65536, 65536, 200000}[alphaBits%8]
		symbols := make([]int, 0, len(data))
		for i, b := range data {
			switch {
			case b == 0:
				symbols = append(symbols, 0) // escape
			case spread == 0: // anywhere in the alphabet
				symbols = append(symbols, (int(b)<<8|int(data[(i+1)%len(data)]))*257%alphabet)
			default: // cluster around the radius, with centre runs
				s := alphabet/2 + (int(b)-128)*int(spread)/64
				symbols = append(symbols, min(max(s, 0), alphabet-1))
			}
		}
		checkDifferential(t, symbols, alphabet)

		want, werr := DecodeAll(data)
		got, gerr := Decode(nil, data)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("decoders disagree: oracle err %v, Decode err %v", werr, gerr)
		}
		if werr == nil && !slices.Equal(got, want) {
			t.Fatalf("decoders disagree on %d symbols", len(want))
		}
	})
}

// FuzzDecode feeds raw bytes to Decode: no panic, and no more values than
// maxValuesPerBit for every bit given.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(forgedTable())
	rng := rand.New(rand.NewSource(3))
	for _, symbols := range [][]int{
		quantLike(rng, 600, 65536, 1.2, 0.03),
		quantLike(rng, 200, 1024, 40, 0),
		repeat([]int{8}, 5000),
		{0, 1, 1, 0, 1},
	} {
		valid, err := Encode(nil, symbols, 2*slices.Max(symbols))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(valid)
		f.Add(valid[:len(valid)/2])
		valid[len(valid)/3] ^= 0x10
		f.Add(valid)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(nil, data)
		if err == nil && len(got) > maxValuesPerBit*8*len(data) {
			t.Fatalf("%d values from %d bytes", len(got), len(data))
		}
	})
}

// repeat is slices.Repeat, which go.mod's Go version predates.
func repeat(pattern []int, n int) []int {
	out := make([]int, 0, n*len(pattern))
	for ; n > 0; n-- {
		out = append(out, pattern...)
	}
	return out
}
