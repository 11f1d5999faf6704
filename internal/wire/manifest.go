package wire

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"repro/internal/frame"
)

// Checkpoint manifest framing: the persisted index of one sealed temporal
// checkpoint. The manifest's content address (hex SHA-256 of these bytes) is
// the checkpoint id; it lists, per field stream, the content address of
// every frame object plus enough metadata to replay the stream without
// touching the objects:
//
//	manifest = magic version | uvarint nFields | field* | u32le crc32c
//	field    = str(name) str(layout) str(curve) str(codec)
//	         | uvarint nFrames | frame*
//	frame    = u8 flags | uvarint numValues | u64le boundBits
//	         | uvarint objectBytes | sha256 (32 raw bytes)
//	magic    = "ZMM1"                                 (4 bytes)
//	str      = uvarint len | bytes                    (len <= MaxFrameString)
//
// flags reuses the temporal frame flag bits (bit0 keyframe, bit1 forced).
// The crc covers everything after the magic and before itself. Declared
// counts are validated against the remaining buffer before any slice is
// sized from them: a frame occupies at least minManifestFrame bytes and a
// field at least minManifestField, so a declared-count bomb is rejected
// before allocation.
var (
	manifestMagic = [4]byte{'Z', 'M', 'M', '1'}

	// ErrManifestMagic reports a buffer that does not start with the
	// manifest magic.
	ErrManifestMagic = errors.New("wire: not a checkpoint manifest (bad magic)")
	// ErrManifestChecksum reports a manifest whose body fails its CRC32-C.
	ErrManifestChecksum = errors.New("wire: checkpoint manifest checksum mismatch")
)

const (
	manifestVersion = 1

	// minManifestFrame is the smallest wire size of one frame record:
	// flags(1) + numValues(1) + boundBits(8) + objectBytes(1) + sha256(32).
	minManifestFrame = 43
	// minManifestField is the smallest wire size of one field record: four
	// empty strings (1 byte each) + nFrames(1).
	minManifestField = 5
)

// Manifest is the parsed form of a checkpoint manifest.
type Manifest struct {
	Fields []ManifestField
}

// ManifestField is one field stream of a checkpoint.
type ManifestField struct {
	Name   string
	Layout string
	Curve  string
	Codec  string
	Frames []ManifestFrame
}

// ManifestFrame records one persisted temporal frame.
type ManifestFrame struct {
	Keyframe bool
	Forced   bool
	// NumValues is the stream length in float64 values.
	NumValues int
	// Bound is the resolved absolute error bound of the frame.
	Bound float64
	// Bytes is the size of the frame object.
	Bytes int64
	// Object is the content address (hex SHA-256) of the frame bytes.
	Object string
}

// EncodeManifest returns the wire encoding of m.
func EncodeManifest(m *Manifest) ([]byte, error) {
	dst := append([]byte(nil), manifestMagic[:]...)
	body := len(dst)
	dst = append(dst, manifestVersion)
	dst = binary.AppendUvarint(dst, uint64(len(m.Fields)))
	for _, f := range m.Fields {
		for _, s := range []string{f.Name, f.Layout, f.Curve, f.Codec} {
			if len(s) > MaxFrameString {
				return nil, fmt.Errorf("wire: manifest identity string is %d bytes, max %d", len(s), MaxFrameString)
			}
		}
		dst = appendFrameString(dst, f.Name)
		dst = appendFrameString(dst, f.Layout)
		dst = appendFrameString(dst, f.Curve)
		dst = appendFrameString(dst, f.Codec)
		dst = binary.AppendUvarint(dst, uint64(len(f.Frames)))
		for _, fr := range f.Frames {
			var flags byte
			if fr.Keyframe {
				flags |= frameKeyframeFlag
			}
			if fr.Forced {
				flags |= frameForcedFlag
			}
			if fr.NumValues < 0 || uint64(fr.NumValues) > maxFrameValues {
				return nil, fmt.Errorf("wire: manifest frame value count %d out of range", fr.NumValues)
			}
			if fr.Bytes < 0 {
				return nil, fmt.Errorf("wire: manifest frame object size %d is negative", fr.Bytes)
			}
			sum, err := hex.DecodeString(fr.Object)
			if err != nil || len(sum) != 32 {
				return nil, fmt.Errorf("wire: manifest frame object %q is not a hex sha-256", fr.Object)
			}
			dst = append(dst, flags)
			dst = binary.AppendUvarint(dst, uint64(fr.NumValues))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(fr.Bound))
			dst = binary.AppendUvarint(dst, uint64(fr.Bytes))
			dst = append(dst, sum...)
		}
	}
	dst = binary.LittleEndian.AppendUint32(dst, frame.Checksum(dst[body:]))
	return dst, nil
}

// ParseManifest parses a checkpoint manifest. The manifest must span buf
// exactly.
func ParseManifest(buf []byte) (*Manifest, error) {
	if len(buf) < 4 || [4]byte(buf[:4]) != manifestMagic {
		return nil, ErrManifestMagic
	}
	if len(buf) < 4+1+1+4 {
		return nil, ErrFrameTruncated
	}
	body, crcBytes := buf[4:len(buf)-4], buf[len(buf)-4:]
	if frame.Checksum(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, ErrManifestChecksum
	}
	r := frame.NewReader(body)
	if ver := r.Byte(); ver != manifestVersion {
		return nil, fmt.Errorf("wire: checkpoint manifest version %d, want %d", ver, manifestVersion)
	}
	m := &Manifest{Fields: make([]ManifestField, r.Count(minManifestField))}
	for i := range m.Fields {
		f := &m.Fields[i]
		if err := readIdentity(&r, &f.Name, &f.Layout, &f.Curve, &f.Codec); err != nil {
			return nil, err
		}
		f.Frames = make([]ManifestFrame, r.Count(minManifestFrame))
		for j := range f.Frames {
			fr := &f.Frames[j]
			flags := r.Byte()
			fr.Keyframe, fr.Forced = flags&frameKeyframeFlag != 0, flags&frameForcedFlag != 0
			nv := r.Uvarint()
			fr.Bound = math.Float64frombits(r.U64())
			ob := r.Uvarint()
			fr.Object = hex.EncodeToString(r.Bytes(32))
			if flags&^(frameKeyframeFlag|frameForcedFlag) != 0 {
				return nil, fmt.Errorf("wire: manifest frame has unknown flags %#x", flags)
			}
			if nv > maxFrameValues {
				return nil, fmt.Errorf("wire: manifest frame declares %d values, max %d", nv, maxFrameValues)
			}
			if math.IsNaN(fr.Bound) || math.IsInf(fr.Bound, 0) || fr.Bound < 0 {
				return nil, fmt.Errorf("wire: manifest frame bound %v is not a finite non-negative value", fr.Bound)
			}
			if ob > math.MaxInt64 {
				return nil, fmt.Errorf("wire: manifest frame object size %d overflows", ob)
			}
			if !fr.Keyframe && fr.Forced {
				return nil, errors.New("wire: manifest delta frame with forced flag")
			}
			fr.NumValues, fr.Bytes = int(nv), int64(ob)
		}
		if r.Bad() {
			return nil, ErrFrameTruncated
		}
		if len(f.Frames) == 0 {
			return nil, fmt.Errorf("wire: manifest field %q has no frames", f.Name)
		}
		if !f.Frames[0].Keyframe {
			return nil, fmt.Errorf("wire: manifest field %q does not start with a keyframe", f.Name)
		}
	}
	if r.Bad() {
		return nil, ErrFrameTruncated
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("wire: checkpoint manifest has %d trailing bytes", r.Len())
	}
	if len(m.Fields) == 0 {
		return nil, errors.New("wire: checkpoint manifest has no fields")
	}
	return m, nil
}
