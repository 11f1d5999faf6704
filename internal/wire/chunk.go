package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/frame"
)

// Chunked stream framing: the wire mode that lets multi-GB field streams
// flow through bounded buffers instead of one contiguous blob. A chunked
// body is a magic prefix followed by self-checking frames and an explicit
// terminator, so truncation, reordering and corruption are all detectable
// without knowing the stream length up front:
//
//	stream     = magic chunk* terminator
//	magic      = "ZMC1"                          (4 bytes)
//	chunk      = u32le n | u32le crc32c(payload) | payload[n]   1 <= n <= MaxChunkPayload
//	terminator = u32le 0 | u32le 0
//
// The payload bytes are opaque to the framing: the compress-stream request
// carries float64-LE values, the decompress-stream request carries a
// container-enveloped artifact, and the responses mirror them. Chunk
// boundaries carry no meaning — a float64 may straddle two chunks — so
// producers may cut frames wherever their buffers happen to end.
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
	// DefaultChunkBytes is the frame size producers use unless configured
	// otherwise: large enough to amortize the 8-byte header, small enough
	// that a ring of a few chunks stays cache- and pool-friendly.
	DefaultChunkBytes = 256 << 10

	chunkHeaderSize = 8
)

// ContentTypeChunked tags request/response bodies in the chunked framing.
const ContentTypeChunked = "application/x-zmesh-chunked"

// ChunkWriter emits the chunked framing onto w. The magic is written
// lazily with the first frame, so constructing a writer commits nothing;
// Close writes the terminator and must be called for the stream to be
// complete. ChunkWriter does no buffering of its own — each WriteChunk is
// one frame — so callers control the frame granularity (and copies: the
// payload is written directly from the caller's slice).
type ChunkWriter struct {
	w          io.Writer
	wroteMagic bool
	hdr        [chunkHeaderSize]byte
}

// NewChunkWriter starts a chunked stream on w.
func NewChunkWriter(w io.Writer) *ChunkWriter { return &ChunkWriter{w: w} }

func (cw *ChunkWriter) magic() error {
	if cw.wroteMagic {
		return nil
	}
	if _, err := cw.w.Write(chunkMagic[:]); err != nil {
		return err
	}
	cw.wroteMagic = true
	return nil
}

// WriteChunk frames p as one chunk. Payloads larger than MaxChunkPayload
// are split into multiple frames; an empty p writes nothing (zero-length
// frames are reserved for the terminator).
func (cw *ChunkWriter) WriteChunk(p []byte) error {
	if err := cw.magic(); err != nil {
		return err
	}
	for len(p) > 0 {
		n := len(p)
		if n > MaxChunkPayload {
			n = MaxChunkPayload
		}
		binary.LittleEndian.PutUint32(cw.hdr[0:4], uint32(n))
		binary.LittleEndian.PutUint32(cw.hdr[4:8], frame.Checksum(p[:n]))
		if _, err := cw.w.Write(cw.hdr[:]); err != nil {
			return err
		}
		if _, err := cw.w.Write(p[:n]); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// Close terminates the stream. It writes the magic first if no chunk was
// ever written (an empty stream is valid) and does not close the
// underlying writer.
func (cw *ChunkWriter) Close() error {
	if err := cw.magic(); err != nil {
		return err
	}
	var term [chunkHeaderSize]byte
	_, err := cw.w.Write(term[:])
	return err
}

// AppendChunked frames data as a complete chunked stream appended to dst —
// the buffered-producer convenience used when the whole payload is already
// in memory (e.g. a client retrying from a buffer). chunkBytes <= 0 uses
// DefaultChunkBytes.
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
