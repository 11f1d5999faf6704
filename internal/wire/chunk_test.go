package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// collectChunks drains a chunked stream, concatenating payloads.
func collectChunks(t *testing.T, r io.Reader) ([]byte, error) {
	t.Helper()
	cr := NewChunkReader(r)
	var out []byte
	var buf []byte
	for {
		p, err := cr.Next(buf)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, p...)
		buf = p
	}
}

func patternBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

func TestChunkRoundTrip(t *testing.T) {
	cases := []struct {
		name   string
		writes [][]byte
	}{
		{"empty stream", nil},
		{"one small chunk", [][]byte{[]byte("hello")}},
		{"several chunks", [][]byte{patternBytes(100), patternBytes(1), patternBytes(4096)}},
		{"empty write skipped", [][]byte{nil, []byte("x"), {}}},
		{"oversized write split", [][]byte{patternBytes(MaxChunkPayload + 12345)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var wire bytes.Buffer
			cw := NewChunkWriter(&wire)
			var want []byte
			for _, p := range tc.writes {
				if err := cw.WriteChunk(p); err != nil {
					t.Fatalf("WriteChunk: %v", err)
				}
				want = append(want, p...)
			}
			if err := cw.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			got, err := collectChunks(t, &wire)
			if err != nil {
				t.Fatalf("read back: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(want))
			}
		})
	}
}

func TestAppendChunkedMatchesWriter(t *testing.T) {
	data := patternBytes(3*DefaultChunkBytes + 17)
	var viaWriter bytes.Buffer
	cw := NewChunkWriter(&viaWriter)
	for rest := data; len(rest) > 0; {
		n := min(DefaultChunkBytes, len(rest))
		if err := cw.WriteChunk(rest[:n]); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	viaAppend := AppendChunked(nil, data, DefaultChunkBytes)
	if !bytes.Equal(viaWriter.Bytes(), viaAppend) {
		t.Fatal("AppendChunked and ChunkWriter produce different framings")
	}
}

// TestChunkReaderRejects is the corruption table: every way a frame can be
// malformed must map to its distinct sentinel, and truncation must never
// read as a clean end.
func TestChunkReaderRejects(t *testing.T) {
	// A valid one-chunk stream to mutate.
	valid := AppendChunked(nil, []byte("payload bytes here"), 0)
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, ErrChunkMagic},
		{"empty input", func([]byte) []byte { return nil }, ErrChunkMagic},
		{"truncated magic", func(b []byte) []byte { return b[:2] }, ErrChunkMagic},
		{"corrupt payload byte", func(b []byte) []byte { b[14] ^= 0x40; return b }, ErrChunkChecksum},
		{"corrupt crc field", func(b []byte) []byte { b[9] ^= 0x01; return b }, ErrChunkChecksum},
		{"truncated mid-payload", func(b []byte) []byte { return b[:len(b)-12] }, io.ErrUnexpectedEOF},
		{"missing terminator", func(b []byte) []byte { return b[:len(b)-8] }, io.ErrUnexpectedEOF},
		{"truncated mid-header", func(b []byte) []byte { return b[:7] }, io.ErrUnexpectedEOF},
		{"nonzero terminator crc", func(b []byte) []byte { b[len(b)-2] = 0xAB; return b }, ErrChunkTerminator},
		{
			"oversized declared length",
			func(b []byte) []byte {
				binary.LittleEndian.PutUint32(b[4:8], MaxChunkPayload+1)
				return b
			},
			ErrChunkTooLarge,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mutate(append([]byte(nil), valid...))
			_, err := collectChunks(t, bytes.NewReader(b))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("got error %v, want %v", err, tc.wantErr)
			}
		})
	}
}

// TestChunkReaderNoAllocationBomb proves a frame declaring a huge payload
// is rejected before any buffer is sized from the declared length.
func TestChunkReaderNoAllocationBomb(t *testing.T) {
	var b []byte
	b = append(b, chunkMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, 1<<31) // 2 GiB declared
	b = binary.LittleEndian.AppendUint32(b, 0)
	allocs := testing.AllocsPerRun(10, func() {
		cr := NewChunkReader(bytes.NewReader(b))
		if _, err := cr.Next(nil); !errors.Is(err, ErrChunkTooLarge) {
			t.Fatalf("got %v, want ErrChunkTooLarge", err)
		}
	})
	// The error path wraps the sentinel (a couple of small allocations); the
	// point is that no 2 GiB buffer is ever made.
	if allocs > 16 {
		t.Fatalf("reject path allocated %v times; declared length may be sizing a buffer", allocs)
	}
}

func TestChunkReaderReusesBuffer(t *testing.T) {
	var wire bytes.Buffer
	cw := NewChunkWriter(&wire)
	for i := 0; i < 4; i++ {
		if err := cw.WriteChunk(patternBytes(512)); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	cr := NewChunkReader(&wire)
	buf := make([]byte, 0, 512)
	for {
		p, err := cr.Next(buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if &p[0] != &buf[:1][0] {
			t.Fatal("Next allocated despite sufficient buffer capacity")
		}
	}
}

// FuzzChunkReader throws arbitrary bytes at the reader: it must never
// panic, and on valid framings it must faithfully reproduce the payload.
func FuzzChunkReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ZMC1"))
	f.Add(AppendChunked(nil, []byte("seed payload"), 4))
	f.Add(AppendChunked(nil, patternBytes(1000), 0))
	b := AppendChunked(nil, []byte("to corrupt"), 0)
	b[10] ^= 0xFF
	f.Add(b)
	f.Fuzz(func(t *testing.T, data []byte) {
		cr := NewChunkReader(bytes.NewReader(data))
		var buf []byte
		for i := 0; i < 1000; i++ {
			p, err := cr.Next(buf)
			if err != nil {
				// Whatever the error, a second call after EOF must stay EOF.
				if err == io.EOF {
					if _, err2 := cr.Next(buf); err2 != io.EOF {
						t.Fatalf("Next after EOF returned %v", err2)
					}
				}
				return
			}
			if len(p) == 0 {
				t.Fatal("Next returned an empty payload without error")
			}
			buf = p
		}
	})
}

func TestChunkCRCIsCastagnoli(t *testing.T) {
	// Pin the polynomial: the framing must stay consistent with the
	// container envelope (internal/compress/container) so tooling can share
	// one CRC implementation. "123456789" is the CRC catalogue's check
	// input; 0xE3069283 is its CRC-32C.
	payload := []byte("123456789")
	framed := AppendChunked(nil, payload, 0)
	got := binary.LittleEndian.Uint32(framed[8:12])
	const want = 0xE3069283
	if got != want {
		t.Fatalf("chunk crc %08x, want castagnoli %08x", got, want)
	}
}
