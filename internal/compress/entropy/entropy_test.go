package entropy

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/huffman"
)

const alphabet = 65536

// fill draws n quantization-like codes (a cluster around the radius, a few
// escapes) into b and returns the header the tests seal them under.
func fill(b *Buf, rng *rand.Rand, spread float64) (head []byte) {
	b.Unpred = b.Unpred[:0]
	for i := range b.Codes {
		if rng.Intn(50) == 0 {
			b.Codes[i] = 0
			b.Unpred = append(b.Unpred, rng.NormFloat64())
			continue
		}
		b.Codes[i] = alphabet/2 + int(rng.NormFloat64()*spread)
	}
	return binary.AppendUvarint([]byte("HDR"), uint64(len(b.Codes)))
}

// rawForm assembles the marker-0 payload: header ‖ coded stream ‖ escaped
// values, no DEFLATE.
func rawForm(t *testing.T, b *Buf, head []byte) []byte {
	t.Helper()
	coded, err := huffman.Encode(nil, b.Codes, alphabet)
	if err != nil {
		t.Error(err) // not Fatal: the concurrent test calls this off the test goroutine
		return nil
	}
	raw := append(binary.AppendUvarint(append([]byte{0}, head...), uint64(len(coded))), coded...)
	for _, v := range b.Unpred {
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	return raw
}

// reference assembles the payload from the rule as written down: a fresh
// flate.Writer per pass, BestSpeed always, DefaultCompression when BestSpeed
// took half a percent off or an eighth of the body is escaped values, the
// smallest of raw and the passes run kept.
func reference(t *testing.T, b *Buf, head []byte) []byte {
	t.Helper()
	raw := rawForm(t, b, head)
	if raw == nil {
		return nil
	}
	pack := func(level int) []byte {
		var out bytes.Buffer
		out.WriteByte(1)
		fw, _ := flate.NewWriter(&out, level)
		fw.Write(raw[1:])
		fw.Close()
		return out.Bytes()
	}
	forms := [][]byte{raw, pack(flate.BestSpeed)}
	if float64(len(raw)-len(forms[1])) >= 0.005*float64(len(raw)) || 8*len(b.Unpred) >= len(raw)/8 {
		forms = append(forms, pack(flate.DefaultCompression))
	}
	return slices.MinFunc(forms, func(x, y []byte) int { return len(x) - len(y) })
}

func seal(b *Buf, head []byte) ([]byte, error) {
	return b.Seal(alphabet, func(dst []byte, codedLen int) []byte {
		return binary.AppendUvarint(append(dst, head...), uint64(codedLen))
	})
}

// roundTrip seals b, checks the bytes against the reference, then opens and
// decodes them through a second Buf.
func roundTrip(t *testing.T, b *Buf, head []byte) {
	t.Helper()
	want := reference(t, b, head)
	got, err := seal(b, head)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d codes: pooled tail diverges from fresh flate.Writers (%d vs %d bytes, marker %d vs %d)",
			len(b.Codes), len(got), len(want), got[0], want[0])
	}
	r := Get(0)
	defer r.Put()
	body, err := r.Open(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(body, head) {
		t.Fatalf("opened body does not start with the header")
	}
	codedLen, k := binary.Uvarint(body[len(head):])
	coded := body[len(head)+k:][:codedLen]
	if err := r.Decode(coded, len(b.Codes)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(r.Codes, b.Codes) {
		t.Fatal("decoded codes differ")
	}
	if err := r.Decode(coded, len(b.Codes)+1); err == nil {
		t.Fatal("wrong code count accepted")
	}
}

// Sizes alternate through one pool, bodies that repeat (both passes)
// between bodies that do not (one): a flate state or buffer that survived
// Reset would change the next call's bytes.
func TestSealMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, n := range []int{0, 1, 64, 40000, 7, 4096, 64, 100000, 3} {
		b := Get(n)
		head := fill(b, rng, []float64{0.7, 4, 300}[i%3])
		if i%2 == 1 {
			b.Unpred = repeated(rng, 2+i)
		}
		roundTrip(t, b, head)
		b.Put()
	}
}

// repeated returns one 4 KiB block of random float64s, times over. (A body
// carries as many escaped values as it is given; the decoder under test
// here stops at the codes.)
func repeated(rng *rand.Rand, times int) []float64 {
	block := make([]float64, 4096/8)
	for i := range block {
		block[i] = rng.NormFloat64()
	}
	var out []float64
	for ; times > 0; times-- {
		out = append(out, block...)
	}
	return out
}

// The traffic that pays for the second DEFLATE pass, and the traffic that
// must not pay for it. A coded stream that does not repeat comes out of
// BestSpeed no smaller: the thorough pass is never run and the body stays
// raw. A body made of one 4 KiB block repeated — what the rows of a
// planar-symmetric field quantize to — shrinks under BestSpeed, so the
// thorough pass runs too and the smallest form is kept. A body that is
// escaped values in good part — a tight bound on a rough field — means
// nothing to BestSpeed, and the thorough pass runs on the escapes' account.
// Deleting the second pass, or running it always, fails here.
func TestThoroughPassRunsWhereItPays(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := Get(50000)
	defer b.Put()
	head := fill(b, rng, 300)
	sealed := func(name string, wantThorough int, wantMarker byte) []byte {
		t.Helper()
		before, want := b.thorough, reference(t, b, head)
		got, err := seal(b, head)
		if err != nil {
			t.Fatal(err)
		}
		if b.thorough-before != wantThorough || got[0] != wantMarker {
			t.Fatalf("%s: %d thorough passes, marker %d; want %d, %d", name, b.thorough-before, got[0], wantThorough, wantMarker)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: sealed to %d bytes, smallest form is %d", name, len(got), len(want))
		}
		return got
	}
	plain := sealed("non-repeating body", 0, 0)

	b.Unpred = repeated(rng, 16)
	if got := sealed("repeating body", 1, 1); len(got) >= len(plain)+16*4096/4 {
		t.Fatalf("repeating body sealed to %d bytes; 15 of its 16 blocks should be gone (non-repeating part: %d)", len(got), len(plain))
	}

	// A body small enough to be one DEFLATE block, so that the escapes do
	// not get a block of their own for BestSpeed to Huffman-code.
	b.Codes, b.Unpred = b.Codes[:20000], b.Unpred[:0]
	for i := 0; i < 1000; i++ { // neighbours on a field: the upper half shared, noise below it
		b.Unpred = append(b.Unpred, 1+1e-6*rng.Float64())
	}
	raw := rawForm(t, b, head)
	var fast bytes.Buffer
	fw, _ := flate.NewWriter(&fast, flate.BestSpeed)
	fw.Write(raw[1:])
	fw.Close()
	if fast.Len() < len(raw)-len(raw)/200 {
		t.Fatalf("BestSpeed shrinks this body (%d of %d bytes): it no longer tests the second trigger", fast.Len(), len(raw))
	}
	if got := sealed("body of escapes", 1, 1); len(raw)-len(got) < 8*len(b.Unpred)/10 {
		t.Fatalf("body of escapes sealed to %d of %d bytes; a tenth of its %d escape bytes should be gone", len(got), len(raw), 8*len(b.Unpred))
	}
}

type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, errors.New("injected write error")
	}
	return len(p), nil
}

// A DEFLATE stage that failed mid-stream must not poison the pooled writer,
// and an alphabet overrun must not poison the Huffman scratch.
func TestFailedCallLeavesPoolClean(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	b := Get(30000)
	defer b.Put()
	head := fill(b, rng, 500)
	roundTrip(t, b, head)

	noise := make([]byte, 1<<16)
	rng.Read(noise)
	for pass := range passLevels {
		if err := b.deflate(&failAfter{n: 100}, pass, noise); err == nil {
			t.Fatalf("pass %d: injected write error not reported", pass)
		}
	}
	b.Unpred = repeated(rng, 8) // through both writers again
	roundTrip(t, b, head)

	good := b.Codes[7]
	b.Codes[7] = alphabet
	if _, err := seal(b, head); err == nil {
		t.Fatal("out-of-alphabet code accepted")
	}
	b.Codes[7] = good
	roundTrip(t, b, head)
}

func TestOpenRejects(t *testing.T) {
	b := Get(0)
	defer b.Put()
	if _, err := b.Open([]byte{2, 0}); err == nil {
		t.Fatal("unknown marker accepted")
	}
	if _, err := b.Open([]byte{1, 0xff, 0xff}); err == nil {
		t.Fatal("garbage DEFLATE stream accepted")
	}
	// The reader must be usable again after the failure.
	var packed bytes.Buffer
	packed.WriteByte(1)
	fw, _ := flate.NewWriter(&packed, flate.DefaultCompression)
	io.WriteString(fw, "after the failure")
	fw.Close()
	if body, err := b.Open(packed.Bytes()); err != nil || string(body) != "after the failure" {
		t.Fatalf("Open after a failed Open = %q, %v", body, err)
	}
}

// 16 goroutines through the shared pools; run under -race in CI.
func TestPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 25 && !t.Failed(); i++ {
				b := Get(1 + rng.Intn(5000))
				head := fill(b, rng, float64(1+rng.Intn(100)))
				want := reference(t, b, head)
				if got, err := seal(b, head); err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: pooled tail diverges (err %v)", g, err)
				}
				b.Put()
			}
		}(g)
	}
	wg.Wait()
}
