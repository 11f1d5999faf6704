package huffman

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

// checkDifferential holds Encode/Decode to the full-alphabet oracle on one
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
	const wide = 2*maxZeroRun + 70000 // zero runs of three tokens
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
		{"run of exactly one token", []int{maxZeroRun, maxZeroRun}, maxZeroRun + 1},
		{"run of one token plus one", []int{maxZeroRun + 1, 0}, maxZeroRun + 2},
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
// all-zero, the invariant that makes span-wise work sound.
func scratchIsZero() bool {
	sc := encPool.Get().(*encScratch)
	defer encPool.Put(sc)
	return !slices.ContainsFunc(sc.tab, func(v uint64) bool { return v != 0 })
}

// A rejected stream must not leave counts behind: the bad symbol comes last,
// after a full stream of good ones.
func TestRejectedStreamLeavesScratchZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	good := quantLike(rng, 4000, 65536, 30, 0.05)
	checkDifferential(t, good, 65536) // the pool now holds a table of 64 Ki entries
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
				alphabet := []int{4, 256, 65536, 3 * maxZeroRun}[(g+i)%4]
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

// forgedTable is a 12-byte stream declaring 2^28 symbols and describing the
// first few: the oracle's ReadTable sizes 256 MiB from it.
func forgedTable() []byte {
	w := bitWriter{}
	w.put(maxAlphabet, 32)
	w.put(5<<1|1, 7) // symbol 0: length 5
	w.zeros(maxZeroRun)
	w.put(5<<1|1, 7)
	return w.bytes()
}

// A hostile table must not size an allocation: memory is bounded by the bits
// that encode the table, whatever alphabet it declares.
func TestForgedTableAllocatesNothing(t *testing.T) {
	data := forgedTable()
	if len(data) > 16 {
		t.Fatalf("forged table is %d bytes, want <= 16", len(data))
	}
	Decode(nil, data) // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(nil, data)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged table accepted")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("forged %d-byte table allocated %d bytes, want < 64 KiB", len(data), got)
	}
}

// FuzzEncodeAllDifferential derives a symbol stream and an alphabet from the
// input and holds Encode/Decode to the oracle; it then feeds the raw input
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
		// Mostly small alphabets: the oracle's cost is the alphabet's size.
		alphabet := []int{2, 4, 12, 256, 1024, 65536, 65536, 3 * maxZeroRun}[alphaBits%8]
		symbols := make([]int, 0, len(data))
		for i, b := range data {
			switch {
			case b == 0:
				symbols = append(symbols, 0) // escape
			case spread == 0: // anywhere in the alphabet
				symbols = append(symbols, (int(b)<<8|int(data[(i+1)%len(data)]))*257%alphabet)
			default: // cluster around the radius
				s := alphabet/2 + (int(b)-128)*int(spread)/64
				symbols = append(symbols, min(max(s, 0), alphabet-1))
			}
		}
		checkDifferential(t, symbols, alphabet)

		// The oracle sizes its table from the declared alphabet; keep the
		// fuzzer's memory for inputs that declare a modest one.
		if len(data) < 4 || binary.LittleEndian.Uint32(data) > 1<<20 {
			return
		}
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
