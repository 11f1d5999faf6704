package huffman

import (
	"errors"
	"math"
	"math/rand"
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

func TestTableRoundTrip(t *testing.T) {
	freqs := make([]uint64, 2048)
	freqs[3] = 100
	freqs[1000] = 50
	freqs[1001] = 25
	freqs[2047] = 10
	enc, err := NewEncoder(freqs)
	if err != nil {
		t.Fatal(err)
	}
	w := bitstream.NewWriter(0)
	enc.WriteTable(w)
	r := bitstream.NewReader(w.Bytes())
	lengths, err := ReadTable(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(lengths) != len(enc.Lengths()) {
		t.Fatalf("table length %d, want %d", len(lengths), len(enc.Lengths()))
	}
	for i := range lengths {
		if lengths[i] != enc.Lengths()[i] {
			t.Fatalf("length[%d] = %d, want %d", i, lengths[i], enc.Lengths()[i])
		}
	}
}

func TestBadTableRejected(t *testing.T) {
	// Oversubscribed code: three symbols of length 1 violate Kraft.
	if _, err := NewDecoder([]uint8{1, 1, 1}); err == nil {
		t.Fatal("expected Kraft violation to be rejected")
	}
	w := bitWriter{}
	w.put(3, 32) // alphabet of three
	for i := 0; i < 3; i++ {
		w.put(1<<1|1, 7) // each of length 1
	}
	w.put(1, 40) // one symbol follows
	w.put(0, 8)
	if _, err := Decode(nil, w.bytes()); !errors.Is(err, ErrBadTable) {
		t.Fatalf("Decode of an oversubscribed table: %v, want ErrBadTable", err)
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
	enc, err := NewEncoder(freqs)
	if err != nil {
		t.Fatal(err)
	}
	var codedBits float64
	for s, f := range freqs {
		if f > 0 {
			codedBits += float64(f) * float64(enc.Lengths()[s])
		}
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
// the full-alphabet reference on the same stream.
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
