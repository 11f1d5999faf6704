package huffman

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/bitstream"
)

func TestCodeLengthsBasic(t *testing.T) {
	// Classic example: frequencies 5, 9, 12, 13, 16, 45.
	freqs := []uint64{5, 9, 12, 13, 16, 45}
	lengths := CodeLengths(freqs)
	// The most frequent symbol must get the shortest code.
	if lengths[5] != 1 {
		t.Fatalf("symbol 5 (freq 45) length = %d, want 1", lengths[5])
	}
	// Least frequent symbols get the longest codes.
	if lengths[0] != 4 || lengths[1] != 4 {
		t.Fatalf("rare symbols got lengths %d, %d, want 4, 4", lengths[0], lengths[1])
	}
	// Kraft equality must hold for a complete code.
	var kraft float64
	for _, l := range lengths {
		if l > 0 {
			kraft += 1 / float64(uint64(1)<<l)
		}
	}
	if kraft != 1.0 {
		t.Fatalf("Kraft sum = %v, want 1.0", kraft)
	}
}

func TestSingleSymbol(t *testing.T) {
	freqs := []uint64{0, 0, 7, 0}
	lengths := CodeLengths(freqs)
	if lengths[2] != 1 {
		t.Fatalf("single symbol length = %d, want 1", lengths[2])
	}
	data, err := Encode(nil, []int{2, 2, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if s != 2 {
			t.Fatalf("decoded %v", got)
		}
	}
}

func TestEmptyInput(t *testing.T) {
	data, err := Encode(nil, nil, 16)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d symbols from empty input", len(got))
	}
}

func TestRoundTripSkewed(t *testing.T) {
	// Highly skewed distribution, typical for SZ quantization codes where
	// the zero-offset bin dominates.
	rng := rand.New(rand.NewSource(42))
	symbols := make([]int, 50000)
	for i := range symbols {
		r := rng.Float64()
		switch {
		case r < 0.85:
			symbols[i] = 512 // center bin
		case r < 0.95:
			symbols[i] = 512 + rng.Intn(5) - 2
		default:
			symbols[i] = rng.Intn(1024)
		}
	}
	data, err := Encode(nil, symbols, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// Skew should compress well below 10 bits/symbol.
	if bits := float64(len(data)*8) / float64(len(symbols)); bits > 3 {
		t.Fatalf("skewed stream coded at %.2f bits/symbol, want < 3", bits)
	}
	got, err := Decode(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(symbols) {
		t.Fatalf("length mismatch %d vs %d", len(got), len(symbols))
	}
	for i := range got {
		if got[i] != symbols[i] {
			t.Fatalf("symbol %d: got %d, want %d", i, got[i], symbols[i])
		}
	}
}

func TestRoundTripUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	symbols := make([]int, 10000)
	for i := range symbols {
		symbols[i] = rng.Intn(256)
	}
	data, err := Encode(nil, symbols, 256)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != symbols[i] {
			t.Fatalf("symbol %d mismatch", i)
		}
	}
}

func TestOutOfAlphabet(t *testing.T) {
	if _, err := Encode(nil, []int{0, 1, 99}, 10); err == nil {
		t.Fatal("expected error for out-of-alphabet symbol")
	}
	if _, err := Encode(nil, []int{-1}, 10); err == nil {
		t.Fatal("expected error for negative symbol")
	}
}

// The reference's table writer against the production reader: every used
// symbol comes back with its length, whatever the gaps between them.
func TestTableRoundTrip(t *testing.T) {
	freqs := make([]uint64, 2049)
	freqs[0] = 3
	freqs[3] = 100
	freqs[1000] = 50
	freqs[1001] = 25
	freqs[1024] = 40 // the centre: RUNA
	freqs[2047] = 10
	freqs[2048] = 7 // RUNB
	lengths := CodeLengths(freqs)
	w := bitstream.NewWriter(nil)
	w.WriteBits(2048, 32)
	writeTable(w, lengths)
	data := w.Bytes()
	used, alphabet, err := readTable(bitstream.NewReader(data), nil, uint64(len(data))*8)
	if err != nil || alphabet != 2048 {
		t.Fatalf("readTable: alphabet %d, err %v", alphabet, err)
	}
	got := make([]uint8, len(freqs))
	for _, e := range used {
		sym := e >> entrySymShift
		got[sym] = uint8(e & entryLenMask)
		wantDigit := map[uint64]uint64{1024: 1, 2048: 2}[sym]
		if d := e >> entryDigitShift & 3; d != wantDigit {
			t.Fatalf("symbol %d read as digit %d, want %d", sym, d, wantDigit)
		}
	}
	if !slices.Equal(got, lengths) {
		t.Fatalf("table read back as %v, want %v", used, lengths)
	}
}

// stream hand-assembles a Huffman stream: the alphabet, a table declaring
// count entries of which (gap, zigzag length delta) pairs are given, then
// the value count.
func stream(alphabet, count uint64, n uint64, entries ...[2]uint64) []byte {
	w := bitstream.NewWriter(nil)
	w.WriteBits(alphabet, 32)
	gamma(w, count+1)
	for _, e := range entries {
		gamma(w, e[0])
		gamma(w, e[1]+1)
	}
	w.WriteBits(n, 40)
	w.WriteBits(0, 16)
	return w.Bytes()
}

func TestBadTableRejected(t *testing.T) {
	if _, err := canonicalCodes([]uint8{1, 1, 1}); err == nil {
		t.Fatal("expected Kraft violation to be rejected")
	}
	const up1 = 2 // zigzag(+1)
	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"three codes of length 1", stream(8, 3, 1, [2]uint64{1, up1}, [2]uint64{1, 0}, [2]uint64{1, 0}), ErrBadTable},
		{"symbol past RUNB", stream(8, 1, 1, [2]uint64{10, up1}), ErrBadTable},
		{"RUNB in an alphabet of 2", stream(2, 1, 1, [2]uint64{3, up1}), ErrBadTable},
		{"length 0", stream(8, 1, 1, [2]uint64{1, 0}), ErrBadTable},
		{"length 59", stream(8, 1, 1, [2]uint64{1, 2 * 59}), ErrBadTable},
		{"more entries than symbols", stream(8, 10, 0), ErrBadTable},
		{"more entries than bits", stream(1<<20, 1<<10, 0), ErrBadTable},
		{"alphabet above the cap", stream(maxAlphabet+1, 0, 0), ErrBadTable},
		{"gamma prefix of 41 zeros", append(stream(8, 0, 0)[:4], 0, 0, 0, 0, 0, 2, 0xff, 0xff), ErrBadTable},
		{"run past the count", stream(8, 1, 1, [2]uint64{9, up1}), ErrBadSymbol}, // RUNB = 2 values, one declared
		// stream ends in sixteen zero bits and up to seven of padding.
		{"count the bits cannot hold", stream(8, 1, 24*maxValuesPerBit, [2]uint64{9, up1}), bitstream.ErrShortStream},
		{"stream ends before the count", stream(8, 1, 24, [2]uint64{1, up1}), bitstream.ErrShortStream},
		{"no code for the bits", stream(8, 0, 1), ErrBadSymbol},
	}
	for _, c := range cases {
		if _, err := Decode(nil, c.data); !errors.Is(err, c.want) {
			t.Errorf("%s: Decode = %v, want %v", c.name, err, c.want)
		}
		if _, err := DecodeAll(c.data); err == nil {
			t.Errorf("%s: accepted by the reference decoder", c.name)
		}
	}
	// The accepted side of the same grammar: four RUNB digits are 2+4+8+16
	// values, and the group ends where they reach the count.
	ok := stream(8, 1, 30, [2]uint64{9, up1})
	if got, err := Decode(nil, ok); err != nil || !slices.Equal(got, repeat([]int{4}, 30)) {
		t.Fatalf("four RUNB digits: %v, err %v", got, err)
	}
}

func TestCorruptStream(t *testing.T) {
	data, err := Encode(nil, []int{1, 2, 3, 4, 5}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(nil, data[:len(data)/2]); err == nil {
		t.Fatal("expected error for truncated stream")
	}
}

// property: round-trip holds for arbitrary random symbol streams.
func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint16, alphaBits uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		alphabet := 1 << (alphaBits%10 + 1)
		count := int(n % 2000)
		symbols := make([]int, count)
		for i := range symbols {
			symbols[i] = rng.Intn(alphabet)
		}
		data, err := Encode(nil, symbols, alphabet)
		if err != nil {
			return false
		}
		got, err := Decode(nil, data)
		if err != nil || len(got) != count {
			return false
		}
		for i := range got {
			if got[i] != symbols[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// property: optimality sanity — Huffman never beats the entropy lower bound
// and stays within 1 bit/symbol of it.
func TestNearEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	symbols := make([]int, 100000)
	// Geometric-ish distribution.
	for i := range symbols {
		s := 0
		for rng.Float64() < 0.5 && s < 15 {
			s++
		}
		symbols[i] = s
	}
	freqs := make([]uint64, 16)
	for _, s := range symbols {
		freqs[s]++
	}
	var entropy float64
	n := float64(len(symbols))
	for _, f := range freqs {
		if f == 0 {
			continue
		}
		p := float64(f) / n
		entropy += -p * math.Log2(p)
	}
	lengths := CodeLengths(freqs)
	var codedBits float64
	for s, f := range freqs {
		codedBits += float64(f) * float64(lengths[s])
	}
	bitsPerSym := codedBits / n
	if bitsPerSym < entropy-1e-9 {
		t.Fatalf("coded %.4f bits/sym below entropy %.4f", bitsPerSym, entropy)
	}
	if bitsPerSym > entropy+1 {
		t.Fatalf("coded %.4f bits/sym exceeds entropy+1 (%.4f)", bitsPerSym, entropy+1)
	}
}

// benchSymbols is a 64 Ki-symbol stream clustered like quantization codes.
func benchSymbols() []int {
	rng := rand.New(rand.NewSource(1))
	symbols := make([]int, 1<<16)
	for i := range symbols {
		symbols[i] = 512 + int(rng.NormFloat64()*3)
	}
	return symbols
}

// BenchmarkEncode and BenchmarkDecode time the coder; the Oracle pair times
// the plain reference on the same stream.
func BenchmarkEncode(b *testing.B) {
	benchEncode(b, func(s []int) ([]byte, error) { return Encode(nil, s, 1024) })
}
func BenchmarkOracleEncodeAll(b *testing.B) {
	benchEncode(b, func(s []int) ([]byte, error) { return EncodeAll(s, 1024) })
}
func BenchmarkDecode(b *testing.B) {
	benchDecode(b, func(d []byte) ([]int, error) { return Decode(nil, d) })
}
func BenchmarkOracleDecodeAll(b *testing.B) { benchDecode(b, DecodeAll) }

func benchEncode(b *testing.B, encode func([]int) ([]byte, error)) {
	symbols := benchSymbols()
	b.SetBytes(int64(len(symbols) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := encode(symbols); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecode(b *testing.B, decode func([]byte) ([]int, error)) {
	symbols := benchSymbols()
	data, err := Encode(nil, symbols, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(symbols) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
