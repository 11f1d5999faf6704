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
// in this repo: the SZ and multilevel codecs start with a 0x00/0x01
// lossless-stage marker, and the ZFP, lossless and chunked framings start
// with the uvarint encoding of a 32-bit magic whose first byte has the
// continuation bit set (>= 0x80). A codec payload handed over without its
// envelope is therefore refused at the magic (ErrCorrupt), never parsed as
// one.
package container

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"repro/internal/compress"
)

// Version is the current envelope format version.
const Version = 2

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

// castagnoli is the CRC32-C polynomial table (hardware-accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

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
	out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, castagnoli))
	return append(out, payload...), nil
}

// Unwrap parses and verifies an envelope. The returned payload aliases buf.
// A buffer without the magic returns ErrCorrupt.
func Unwrap(buf []byte) (Envelope, error) {
	var env Envelope
	if !IsContainer(buf) {
		return env, fmt.Errorf("%w: missing magic", ErrCorrupt)
	}
	rd := buf[len(Magic):]
	if len(rd) < 2 {
		return env, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	ver := int(rd[0])
	if ver != Version {
		return env, fmt.Errorf("container: unsupported envelope version %d", ver)
	}
	nameLen := int(rd[1])
	rd = rd[2:]
	if nameLen == 0 || nameLen > MaxCodecName || len(rd) < nameLen {
		return env, fmt.Errorf("%w: bad codec name length %d", ErrCorrupt, nameLen)
	}
	name := string(rd[:nameLen])
	rd = rd[nameLen:]
	numValues, n := uvarint(rd)
	if n <= 0 || numValues > compress.MaxElements {
		return env, fmt.Errorf("%w: bad value count", ErrCorrupt)
	}
	rd = rd[n:]
	payloadLen, n := uvarint(rd)
	if n <= 0 {
		return env, fmt.Errorf("%w: bad payload length", ErrCorrupt)
	}
	rd = rd[n:]
	if len(rd) < 4 {
		return env, fmt.Errorf("%w: truncated checksum", ErrCorrupt)
	}
	sum := binary.LittleEndian.Uint32(rd)
	rd = rd[4:]
	// The payload must fill the rest of the buffer exactly: a shorter
	// remainder is truncation, a longer one is trailing garbage.
	if payloadLen != uint64(len(rd)) {
		return env, fmt.Errorf("%w: payload length %d, %d bytes remain", ErrCorrupt, payloadLen, len(rd))
	}
	if crc32.Checksum(rd, castagnoli) != sum {
		return env, ErrChecksum
	}
	env.Version = ver
	env.Codec = name
	env.NumValues = int(numValues)
	env.Payload = rd
	return env, nil
}

// uvarint is binary.Uvarint restricted to the minimal (canonical) encoding:
// a padded varint (trailing zero continuation groups) re-encodes the same
// value in fewer bytes, which would let distinct byte strings parse as the
// same envelope. The envelope format admits exactly one serialization.
func uvarint(b []byte) (uint64, int) {
	v, n := binary.Uvarint(b)
	if n > 1 && b[n-1] == 0 {
		return 0, -1 // non-minimal encoding
	}
	return v, n
}
