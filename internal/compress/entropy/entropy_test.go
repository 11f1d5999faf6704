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

// reference assembles the payload the way each codec did before the tail was
// shared: a fresh flate.Writer per call, raw kept when DEFLATE does not help.
func reference(t *testing.T, b *Buf, head []byte, lossless bool) []byte {
	t.Helper()
	coded, err := huffman.Encode(nil, b.Codes, alphabet)
	if err != nil {
		t.Error(err) // not Fatal: the concurrent test calls this off the test goroutine
		return nil
	}
	body := append(binary.AppendUvarint(slices.Clone(head), uint64(len(coded))), coded...)
	for _, v := range b.Unpred {
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(v))
	}
	var out bytes.Buffer
	out.WriteByte(1)
	fw, _ := flate.NewWriter(&out, flate.DefaultCompression)
	fw.Write(body)
	fw.Close()
	if !lossless || out.Len() >= len(body)+1 {
		return append([]byte{0}, body...)
	}
	return out.Bytes()
}

func seal(b *Buf, head []byte, lossless bool) ([]byte, error) {
	return b.Seal(alphabet, lossless, func(dst []byte, codedLen int) []byte {
		return binary.AppendUvarint(append(dst, head...), uint64(codedLen))
	})
}

// roundTrip seals b, checks the bytes against the reference, then opens and
// decodes them through a second Buf.
func roundTrip(t *testing.T, b *Buf, head []byte, lossless bool) {
	t.Helper()
	want := reference(t, b, head, lossless)
	got, err := seal(b, head, lossless)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%d codes: pooled tail diverges from a fresh flate.Writer (%d vs %d bytes, marker %d vs %d)",
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

// Sizes alternate through one pool, with and without DEFLATE: a flate state
// or buffer that survived Reset would change the next call's bytes.
func TestSealMatchesFreshWriter(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i, n := range []int{0, 1, 64, 40000, 7, 4096, 64, 100000, 3} {
		b := Get(n)
		head := fill(b, rng, []float64{0.7, 4, 300}[i%3])
		roundTrip(t, b, head, i%4 != 3)
		b.Put()
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
	roundTrip(t, b, head, true)

	noise := make([]byte, 1<<16)
	rng.Read(noise)
	if err := b.deflate(&failAfter{n: 100}, noise); err == nil {
		t.Fatal("injected write error not reported")
	}
	roundTrip(t, b, head, true)

	good := b.Codes[7]
	b.Codes[7] = alphabet
	if _, err := seal(b, head, true); err == nil {
		t.Fatal("out-of-alphabet code accepted")
	}
	b.Codes[7] = good
	roundTrip(t, b, head, true)
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
				want := reference(t, b, head, true)
				if got, err := seal(b, head, true); err != nil || !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: pooled tail diverges (err %v)", g, err)
				}
				b.Put()
			}
		}(g)
	}
	wg.Wait()
}
