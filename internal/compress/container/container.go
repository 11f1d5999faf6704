// Package container defines the self-describing envelope wrapped around
// every compressed field payload. zMesh's decode path is the single point
// of failure for data integrity — the compressed artifact stores no
// permutation metadata, so a silently corrupted payload would decompress
// into plausible-looking garbage. The envelope makes corruption loud: it
// records the codec that produced the payload, the value count the payload
// must decode to, and a CRC32-C over the payload bytes, all verified before
// any codec is dispatched.
//
// Layout (all integers little-endian; uvarint = unsigned LEB128):
//
//	offset 0   magic "zMc1" (4 bytes)
//	offset 4   format version (1 byte)
//	offset 5   codec name length L, 1..=MaxCodecName (1 byte)
//	offset 6   codec name (L bytes)
//	...        value count (uvarint)
//	...        payload length P (uvarint)
//	...        CRC32-C of the payload (4 bytes, little-endian)
//	...        payload (exactly P bytes; the envelope must end here)
//
// The magic's first byte (0x7a, 'z') is disjoint from every codec framing
// in this repo: the SZ codec starts with a 0x00/0x01 lossless-stage
// marker, and the ZFP, lossless and chunked framings start
// with the uvarint encoding of a 32-bit magic whose first byte has the
// continuation bit set (>= 0x80). A codec payload handed over without its
// envelope is therefore refused at the magic (ErrCorrupt), never parsed as
// one.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/compress"
	"repro/internal/frame"
)

// Version is the current envelope format version.
const Version = 3

// MaxCodecName bounds the codec name length accepted in an envelope.
const MaxCodecName = 32

// Magic is the 4-byte envelope prefix.
var Magic = [4]byte{'z', 'M', 'c', '1'}

// Envelope errors. ErrChecksum wraps ErrCorrupt so callers matching either
// sentinel behave correctly.
var (
	// ErrCorrupt is returned for structurally invalid envelopes: truncated
	// headers, bad lengths, or trailing bytes after the payload.
	ErrCorrupt = errors.New("container: corrupt envelope")
	// ErrChecksum is returned when the payload fails CRC verification.
	ErrChecksum = fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
)

// Envelope is a parsed container.
type Envelope struct {
	// Version is the format version the envelope was written with.
	Version int
	// Codec names the compressor that produced Payload.
	Codec string
	// NumValues is the float64 count Payload must decode to.
	NumValues int
	// Payload is the codec's raw output (aliases the input buffer).
	Payload []byte
}

// IsContainer reports whether buf starts with the envelope magic.
func IsContainer(buf []byte) bool {
	return len(buf) >= len(Magic) && [4]byte(buf[:4]) == Magic
}

// Wrap builds an envelope around payload.
func Wrap(codec string, numValues int, payload []byte) ([]byte, error) {
	if len(codec) == 0 || len(codec) > MaxCodecName {
		return nil, fmt.Errorf("container: codec name %q length out of range [1, %d]", codec, MaxCodecName)
	}
	if numValues < 0 || numValues > compress.MaxElements {
		return nil, fmt.Errorf("container: value count %d out of range", numValues)
	}
	out := make([]byte, 0, len(Magic)+2+len(codec)+2*binary.MaxVarintLen64+4+len(payload))
	out = append(out, Magic[:]...)
	out = append(out, Version, byte(len(codec)))
	out = append(out, codec...)
	out = binary.AppendUvarint(out, uint64(numValues))
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, frame.Checksum(payload))
	return append(out, payload...), nil
}

// Unwrap parses and verifies an envelope. The returned payload aliases buf.
// A buffer without the magic returns ErrCorrupt.
func Unwrap(buf []byte) (Envelope, error) {
	var env Envelope
	if !IsContainer(buf) {
		return env, fmt.Errorf("%w: missing magic", ErrCorrupt)
	}
	r := frame.NewReader(buf[len(Magic):])
	ver, nameLen := int(r.Byte()), int(r.Byte())
	if r.Bad() {
		return env, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if ver != Version {
		return env, fmt.Errorf("container: unsupported envelope version %d", ver)
	}
	if nameLen == 0 || nameLen > MaxCodecName {
		return env, fmt.Errorf("%w: bad codec name length %d", ErrCorrupt, nameLen)
	}
	name := r.Bytes(uint64(nameLen))
	numValues, payloadLen, sum := r.Uvarint(), r.Uvarint(), r.U32()
	if r.Bad() || numValues > compress.MaxElements {
		return env, fmt.Errorf("%w: codec name, value count, payload length or checksum field truncated or out of range", ErrCorrupt)
	}
	// The payload must fill the rest of the buffer exactly: a shorter
	// remainder is truncation, a longer one is trailing garbage.
	if payloadLen != uint64(r.Len()) {
		return env, fmt.Errorf("%w: payload length %d, %d bytes remain", ErrCorrupt, payloadLen, r.Len())
	}
	if frame.Checksum(r.Rest()) != sum {
		return env, ErrChecksum
	}
	return Envelope{Version: ver, Codec: string(name), NumValues: int(numValues), Payload: r.Rest()}, nil
}
