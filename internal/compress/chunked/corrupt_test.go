package chunked

// Table-driven corrupt-framing tests for the chunked format. Each case
// crafts a hostile header or payload and asserts the decoder fails loudly —
// the seed code accepted trailing garbage, zero-filled short chunks, and
// wrapped an int accumulator on crafted chunk lengths.

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/compress"
	"repro/internal/compress/sz"
)

// forge assembles a chunked payload from raw header fields and chunk
// payloads, bypassing Compress so tests can forge inconsistent tables.
func forge(n, cs, nChunks uint64, lengths []uint64, chunks ...[]byte) []byte {
	out := make([]byte, 0, 64)
	out = binary.AppendUvarint(out, magic)
	out = binary.AppendUvarint(out, version)
	out = binary.AppendUvarint(out, n)
	out = binary.AppendUvarint(out, cs)
	out = binary.AppendUvarint(out, nChunks)
	for _, l := range lengths {
		out = binary.AppendUvarint(out, l)
	}
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}

// basePayload compresses n values with the bare sz codec.
func basePayload(t *testing.T, n int) []byte {
	t.Helper()
	data := make([]float64, n)
	for i := range data {
		data[i] = float64(i % 97)
	}
	buf, err := sz.New().Compress(data, []int{n}, compress.AbsBound(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestTrailingGarbageRejected(t *testing.T) {
	c := &Compressor{Base: sz.New(), ChunkSize: 1000}
	data := make([]float64, 2500)
	for i := range data {
		data[i] = float64(i)
	}
	buf, err := c.Compress(data, []int{len(data)}, compress.AbsBound(1e-6))
	if err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]byte{{0}, {1, 2, 3}, make([]byte, 64)} {
		mut := append(append([]byte(nil), buf...), extra...)
		if _, err := c.Decompress(mut); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%d trailing bytes: got %v, want ErrCorrupt", len(extra), err)
		}
	}
}

func TestShortChunkRejectedNotZeroFilled(t *testing.T) {
	// Frame table promises 1000-value chunks for n=2000, but the second
	// chunk's payload decodes to only 400 values. The seed code copied the
	// 400 and left the remaining 600 silently zero.
	c := &Compressor{Base: sz.New(), ChunkSize: 1000}
	full := basePayload(t, 1000)
	short := basePayload(t, 400)
	buf := forge(2000, 1000, 2,
		[]uint64{uint64(len(full)), uint64(len(short))}, full, short)
	out, err := c.Decompress(buf)
	if err == nil {
		t.Fatalf("short chunk accepted (decoded %d values)", len(out))
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestOverlongChunkRejected(t *testing.T) {
	// The second chunk decodes to more values than its extent; accepting
	// it would clobber a neighbouring chunk's output.
	c := &Compressor{Base: sz.New(), ChunkSize: 1000}
	full := basePayload(t, 1000)
	long := basePayload(t, 1400)
	buf := forge(2000, 1000, 2,
		[]uint64{uint64(len(full)), uint64(len(long))}, full, long)
	if _, err := c.Decompress(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestHostileChunkLengthsDoNotWrap(t *testing.T) {
	// Two lengths near 2^63 sum to a tiny value in a wrapping int; the
	// seed code then sliced past the buffer and panicked. Lengths must be
	// capped against the remaining bytes individually.
	c := &Compressor{Base: sz.New(), ChunkSize: 1000}
	huge := uint64(1) << 63
	buf := forge(2000, 1000, 2, []uint64{huge, huge})
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decompress panicked: %v", r)
		}
	}()
	if _, err := c.Decompress(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestForgedChunkCountRejected(t *testing.T) {
	// nChunks is fully determined by n and cs; forged counts (extra empty
	// frames, missing frames) are rejected up front.
	c := &Compressor{Base: sz.New(), ChunkSize: 1000}
	full := basePayload(t, 1000)
	for _, nChunks := range []uint64{0, 1, 3, 7} {
		lengths := make([]uint64, nChunks)
		chunks := make([][]byte, 0, nChunks)
		for i := range lengths {
			lengths[i] = uint64(len(full))
			chunks = append(chunks, full)
		}
		buf := forge(2000, 1000, nChunks, lengths, chunks...)
		if _, err := c.Decompress(buf); err == nil {
			t.Fatalf("nChunks=%d accepted for n=2000 cs=1000", nChunks)
		}
	}
}

// One value per chunk makes any chunk count self-consistent, so the table
// length is only bounded by the bytes that could hold it: 17 bytes declaring
// 2^28 chunks must fail before the table is sized (it was 2 GiB of lengths).
func TestForgedChunkTableAllocatesNothing(t *testing.T) {
	c := &Compressor{Base: sz.New()}
	buf := forge(1<<28, 1, 1<<28, nil)
	if len(buf) != 17 {
		t.Fatalf("forged payload is %d bytes, want 17", len(buf))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := c.Decompress(buf)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("forged 17-byte payload allocated %d bytes, want < 64 KiB", got)
	}
}

func TestEmptyChunkForNonEmptyExtentRejected(t *testing.T) {
	// A zero-length payload for a chunk that must carry values was the
	// other silent zero-fill path in the seed code.
	c := &Compressor{Base: sz.New(), ChunkSize: 1000}
	full := basePayload(t, 1000)
	buf := forge(2000, 1000, 2, []uint64{uint64(len(full)), 0}, full)
	if _, err := c.Decompress(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestImplausibleValueCountRejected(t *testing.T) {
	// A header claiming billions of values for a few bytes must fail
	// before the output array is allocated.
	c := &Compressor{Base: sz.New(), ChunkSize: 1000}
	n := uint64(1) << 33
	cs := uint64(1) << 33
	buf := forge(n, cs, 1, []uint64{4}, []byte{1, 2, 3, 4})
	if _, err := c.Decompress(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}

func TestEmptyInputRoundTrip(t *testing.T) {
	c := &Compressor{Base: sz.New(), ChunkSize: 1000}
	if _, err := c.Compress(nil, []int{1}, compress.AbsBound(1e-6)); err == nil {
		// dims {1} with no data is invalid; the real empty case is n=0
		// via the internal framing, exercised below.
		t.Fatal("invalid dims accepted")
	}
	// An n=0 frame with one empty chunk decodes to zero values.
	empty := forge(0, 1000, 1, []uint64{0})
	out, err := c.Decompress(empty)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty frame: %v (%d values)", err, len(out))
	}
}
