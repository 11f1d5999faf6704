package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/frame"
)

// ZMC1 chunk framing: a magic prefix followed by self-checking frames and an
// explicit terminator, so truncation, reordering and corruption are all
// detectable without knowing the stream length up front:
//
//	stream     = magic chunk* terminator
//	magic      = "ZMC1"                          (4 bytes)
//	chunk      = u32le n | u32le crc32c(payload) | payload[n]   1 <= n <= MaxChunkPayload
//	terminator = u32le 0 | u32le 0
//
// No zmeshd endpoint speaks it any more: compress and decompress take and
// return plain bodies (DESIGN.md "Compress transport"). What is left here —
// AppendChunked, ChunkReader, the limits and the ErrChunk* sentinels — is
// used only by the benchmark's wire.chunk_mbps probe (bench/layers.go), and
// goes together with that row when the benchmark is next revised.
var (
	chunkMagic = [4]byte{'Z', 'M', 'C', '1'}

	// ErrChunkMagic reports a stream that does not start with the chunk
	// framing magic.
	ErrChunkMagic = errors.New("wire: not a chunked stream (bad magic)")
	// ErrChunkTooLarge reports a frame whose declared payload length exceeds
	// MaxChunkPayload — rejected before any allocation.
	ErrChunkTooLarge = errors.New("wire: chunk exceeds maximum payload size")
	// ErrChunkChecksum reports a frame whose payload fails its CRC32-C.
	ErrChunkChecksum = errors.New("wire: chunk checksum mismatch")
	// ErrChunkTerminator reports a terminator frame with a nonzero checksum
	// field.
	ErrChunkTerminator = errors.New("wire: malformed stream terminator")
)

const (
	// MaxChunkPayload caps a single frame's payload. The cap bounds the
	// receive-side allocation per chunk no matter what length a frame
	// declares.
	MaxChunkPayload = 4 << 20
	// DefaultChunkBytes is the frame size AppendChunked uses unless told
	// otherwise: large enough to amortize the 8-byte header.
	DefaultChunkBytes = 256 << 10

	chunkHeaderSize = 8
)

// AppendChunked frames data as a complete chunked stream appended to dst.
// chunkBytes <= 0 uses DefaultChunkBytes; frames never exceed
// MaxChunkPayload.
func AppendChunked(dst, data []byte, chunkBytes int) []byte {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if chunkBytes > MaxChunkPayload {
		chunkBytes = MaxChunkPayload
	}
	dst = append(dst, chunkMagic[:]...)
	for len(data) > 0 {
		n := len(data)
		if n > chunkBytes {
			n = chunkBytes
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
		dst = binary.LittleEndian.AppendUint32(dst, frame.Checksum(data[:n]))
		dst = append(dst, data[:n]...)
		data = data[n:]
	}
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
}

// ChunkReader consumes the chunked framing from r, one frame per Next
// call. It validates the magic, each frame's length cap and CRC, and the
// terminator; a stream that ends before the terminator surfaces as
// io.ErrUnexpectedEOF, never as a clean end.
type ChunkReader struct {
	r         io.Reader
	readMagic bool
	done      bool
	hdr       [chunkHeaderSize]byte
}

// NewChunkReader starts parsing a chunked stream from r.
func NewChunkReader(r io.Reader) *ChunkReader { return &ChunkReader{r: r} }

// Next returns the next chunk payload, read into buf when its capacity
// suffices (the returned slice aliases buf then) and into a fresh
// allocation otherwise. It returns io.EOF — with no payload — once the
// terminator has been consumed.
func (cr *ChunkReader) Next(buf []byte) ([]byte, error) {
	if cr.done {
		return nil, io.EOF
	}
	if !cr.readMagic {
		var m [4]byte
		if _, err := io.ReadFull(cr.r, m[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("%w: truncated before magic", ErrChunkMagic)
			}
			return nil, err
		}
		if m != chunkMagic {
			return nil, ErrChunkMagic
		}
		cr.readMagic = true
	}
	if _, err := io.ReadFull(cr.r, cr.hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, io.ErrUnexpectedEOF // stream ended without a terminator
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(cr.hdr[0:4])
	sum := binary.LittleEndian.Uint32(cr.hdr[4:8])
	if n == 0 {
		if sum != 0 {
			return nil, ErrChunkTerminator
		}
		cr.done = true
		return nil, io.EOF
	}
	if n > MaxChunkPayload {
		return nil, fmt.Errorf("%w: frame declares %d bytes, cap %d", ErrChunkTooLarge, n, MaxChunkPayload)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(cr.r, buf); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if frame.Checksum(buf) != sum {
		return nil, ErrChunkChecksum
	}
	return buf, nil
}
