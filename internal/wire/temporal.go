package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/frame"
)

// Temporal frame framing: the wire form of one zmesh.TemporalCompressed —
// the unit a simulation posts to a zmeshd temporal session. The grammar is
// self-describing and self-checking so a frame can be persisted verbatim in
// the content-addressed artifact store and replayed later without any
// side-channel metadata:
//
//	frame   = magic version flags
//	        | str(field) str(layout) str(curve) str(codec)
//	        | uvarint numValues | u64le boundBits
//	        | uvarint structureLen | structure
//	        | uvarint payloadLen | payload
//	        | u32le crc32c(everything after magic, before the crc)
//	magic   = "ZMT1"                                  (4 bytes)
//	version = u8 (currently 1)
//	flags   = u8: bit0 keyframe, bit1 forced keyframe
//	str     = uvarint len | bytes                     (len <= MaxFrameString)
//
// structure is the serialized mesh topology and must be present exactly on
// keyframes; payload is the container-enveloped codec output. boundBits is
// the IEEE 754 encoding of the resolved absolute error bound. The forced
// bit marks a keyframe the client emitted for recovery (session eviction or
// a dangling delta) rather than for a topology change — the server counts
// these separately so recovery storms are visible in telemetry.
var (
	temporalMagic = [4]byte{'Z', 'M', 'T', '1'}

	// ErrFrameMagic reports a buffer that does not start with the temporal
	// frame magic.
	ErrFrameMagic = errors.New("wire: not a temporal frame (bad magic)")
	// ErrFrameChecksum reports a frame whose body fails its CRC32-C.
	ErrFrameChecksum = errors.New("wire: temporal frame checksum mismatch")
	// ErrFrameTruncated reports a frame whose declared lengths run past the
	// end of the buffer — rejected before any allocation is sized from them.
	ErrFrameTruncated = errors.New("wire: truncated temporal frame")
)

const (
	temporalVersion = 1

	// MaxFrameString caps the field/layout/curve/codec identity strings of a
	// temporal frame.
	MaxFrameString = 4096
	// maxFrameValues caps the declared value count: large enough for any
	// real mesh, small enough that downstream arithmetic cannot overflow.
	maxFrameValues = 1 << 40

	frameKeyframeFlag = 1 << 0
	frameForcedFlag   = 1 << 1
)

// ContentTypeTemporal tags temporal frame request bodies.
const ContentTypeTemporal = "application/x-zmesh-temporal"

// TemporalFrame is the parsed form of one temporal wire frame.
type TemporalFrame struct {
	// Keyframe marks a spatially-coded snapshot; Forced additionally marks a
	// keyframe emitted for stream recovery rather than a topology change.
	Keyframe bool
	Forced   bool
	// Field, Layout, Curve and Codec are the stream identity, matching the
	// zmesh.Compressed metadata of the frame.
	Field  string
	Layout string
	Curve  string
	Codec  string
	// NumValues is the stream length in float64 values.
	NumValues int
	// Bound is the resolved absolute error bound of the frame.
	Bound float64
	// Structure is the serialized topology (keyframes only, nil otherwise).
	Structure []byte
	// Payload is the container-enveloped codec output.
	Payload []byte
}

func appendFrameString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendTemporalFrame appends the wire encoding of f to dst. Keyframes must
// carry a structure and delta frames must not; identity strings are capped
// at MaxFrameString.
func AppendTemporalFrame(dst []byte, f *TemporalFrame) ([]byte, error) {
	for _, s := range []string{f.Field, f.Layout, f.Curve, f.Codec} {
		if len(s) > MaxFrameString {
			return dst, fmt.Errorf("wire: temporal frame identity string is %d bytes, max %d", len(s), MaxFrameString)
		}
	}
	if f.Keyframe && len(f.Structure) == 0 {
		return dst, errors.New("wire: temporal keyframe without structure")
	}
	if !f.Keyframe && len(f.Structure) != 0 {
		return dst, errors.New("wire: temporal delta frame with structure")
	}
	if !f.Keyframe && f.Forced {
		return dst, errors.New("wire: forced flag on a delta frame")
	}
	if f.NumValues < 0 || uint64(f.NumValues) > maxFrameValues {
		return dst, fmt.Errorf("wire: temporal frame value count %d out of range", f.NumValues)
	}
	dst = append(dst, temporalMagic[:]...)
	body := len(dst)
	var flags byte
	if f.Keyframe {
		flags |= frameKeyframeFlag
	}
	if f.Forced {
		flags |= frameForcedFlag
	}
	dst = append(dst, temporalVersion, flags)
	dst = appendFrameString(dst, f.Field)
	dst = appendFrameString(dst, f.Layout)
	dst = appendFrameString(dst, f.Curve)
	dst = appendFrameString(dst, f.Codec)
	dst = binary.AppendUvarint(dst, uint64(f.NumValues))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.Bound))
	dst = binary.AppendUvarint(dst, uint64(len(f.Structure)))
	dst = append(dst, f.Structure...)
	dst = binary.AppendUvarint(dst, uint64(len(f.Payload)))
	dst = append(dst, f.Payload...)
	dst = binary.LittleEndian.AppendUint32(dst, frame.Checksum(dst[body:]))
	return dst, nil
}

// EncodeTemporalFrame is AppendTemporalFrame into a fresh buffer.
func EncodeTemporalFrame(f *TemporalFrame) ([]byte, error) {
	return AppendTemporalFrame(nil, f)
}

// readIdentity reads the four identity strings a temporal frame and a
// manifest field both carry, in wire order: field name, layout, curve, codec.
// An over-long string is reported by name; truncation latches in r.
func readIdentity(r *frame.Reader, name, layout, curve, codec *string) error {
	what := [4]string{"field name", "layout", "curve", "codec"}
	for i, dst := range [4]*string{name, layout, curve, codec} {
		n := r.Uvarint()
		if n > MaxFrameString {
			return fmt.Errorf("wire: temporal frame %s is %d bytes, max %d", what[i], n, MaxFrameString)
		}
		*dst = string(r.Bytes(n))
	}
	return nil
}

// ParseTemporalFrame parses one temporal frame from buf. The returned
// Structure and Payload slices alias buf; callers that outlive the buffer
// must copy them. The frame must span buf exactly (no trailing bytes).
func ParseTemporalFrame(buf []byte) (*TemporalFrame, error) {
	if len(buf) < 4 || [4]byte(buf[:4]) != temporalMagic {
		return nil, ErrFrameMagic
	}
	if len(buf) < 4+2+4 {
		return nil, ErrFrameTruncated
	}
	body, crcBytes := buf[4:len(buf)-4], buf[len(buf)-4:]
	if frame.Checksum(body) != binary.LittleEndian.Uint32(crcBytes) {
		return nil, ErrFrameChecksum
	}
	r := frame.NewReader(body)
	if ver := r.Byte(); ver != temporalVersion {
		return nil, fmt.Errorf("wire: temporal frame version %d, want %d", ver, temporalVersion)
	}
	flags := r.Byte()
	if flags&^(frameKeyframeFlag|frameForcedFlag) != 0 {
		return nil, fmt.Errorf("wire: temporal frame has unknown flags %#x", flags)
	}
	f := &TemporalFrame{
		Keyframe: flags&frameKeyframeFlag != 0,
		Forced:   flags&frameForcedFlag != 0,
	}
	if err := readIdentity(&r, &f.Field, &f.Layout, &f.Curve, &f.Codec); err != nil {
		return nil, err
	}
	nv := r.Uvarint()
	f.Bound = math.Float64frombits(r.U64())
	f.Structure = r.Bytes(r.Uvarint())
	f.Payload = r.Bytes(r.Uvarint())
	if r.Bad() {
		return nil, ErrFrameTruncated
	}
	if nv > maxFrameValues {
		return nil, fmt.Errorf("wire: temporal frame declares %d values, max %d", nv, maxFrameValues)
	}
	f.NumValues = int(nv)
	if math.IsNaN(f.Bound) || math.IsInf(f.Bound, 0) || f.Bound < 0 {
		return nil, fmt.Errorf("wire: temporal frame bound %v is not a finite non-negative value", f.Bound)
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("wire: temporal frame has %d trailing bytes", r.Len())
	}
	if f.Keyframe && len(f.Structure) == 0 {
		return nil, errors.New("wire: temporal keyframe without structure")
	}
	if !f.Keyframe && len(f.Structure) != 0 {
		return nil, errors.New("wire: temporal delta frame with structure")
	}
	if !f.Keyframe && f.Forced {
		return nil, errors.New("wire: forced flag on a delta frame")
	}
	if len(f.Structure) == 0 {
		f.Structure = nil
	}
	return f, nil
}

// Temporal session and checkpoint endpoints (see DESIGN.md "Temporal
// checkpoint store").
const (
	// PathSessions is the temporal session collection: POST creates a
	// session, per-session subpaths append frames and seal.
	PathSessions = "/v1/sessions"
	// PathCheckpoints is the sealed-checkpoint collection: GETs serve
	// summaries, field reconstructions (full, level-prefix, or tiered) and
	// topology from the content-addressed artifact store.
	PathCheckpoints = "/v1/checkpoints"
)

// SessionFramesPath returns the frame-append endpoint of one session stream.
func SessionFramesPath(sessionID, field string) string {
	return PathSessions + "/" + sessionID + "/streams/" + field + "/frames"
}

// SessionSealPath returns the seal endpoint of a session.
func SessionSealPath(sessionID string) string { return PathSessions + "/" + sessionID + "/seal" }

// CheckpointInfoPath returns the JSON summary endpoint of a checkpoint.
func CheckpointInfoPath(checkpointID string) string { return PathCheckpoints + "/" + checkpointID }

// CheckpointFieldPath returns the field read endpoint of a checkpoint.
func CheckpointFieldPath(checkpointID, field string) string {
	return PathCheckpoints + "/" + checkpointID + "/fields/" + field
}

// CheckpointStructurePath returns the topology read endpoint of a
// checkpoint.
func CheckpointStructurePath(checkpointID string) string {
	return PathCheckpoints + "/" + checkpointID + "/structure"
}

// Query parameters of the session and checkpoint endpoints.
const (
	// ParamSeq is the frame-append sequence number: the zero-based index the
	// client expects this frame to land at in its stream. It makes appends
	// exactly-once under retries — a re-sent frame whose sequence and bytes
	// match the last accepted one is acknowledged idempotently, and any
	// other mismatch is rejected with 412 so the client does a full resync
	// instead of silently forking the stream.
	ParamSeq = "seq"
	// ParamSnapshot selects the snapshot index (default: the last one).
	ParamSnapshot = "snap"
	// ParamLevels requests a progressive level-prefix read: the first K
	// refinement levels of the level-order stream.
	ParamLevels = "levels"
	// ParamTiers requests a tiered progressive read: K multilevel tiers with
	// strictly decreasing error bounds, batch-framed one section per tier.
	ParamTiers = "tiers"
)

// Response headers of the checkpoint read endpoints.
const (
	// HeaderSnapshot is the snapshot index a read resolved to.
	HeaderSnapshot = "X-Zmesh-Snapshot"
	// HeaderSnapshots is the total snapshot count of the field's stream.
	HeaderSnapshots = "X-Zmesh-Snapshots"
	// HeaderLevels is the number of refinement levels a level-prefix read
	// covers.
	HeaderLevels = "X-Zmesh-Levels"
	// HeaderMeshLevels is the total refinement level count of the snapshot's
	// topology.
	HeaderMeshLevels = "X-Zmesh-Mesh-Levels"
	// HeaderTiers is the tier count of a tiered progressive read.
	HeaderTiers = "X-Zmesh-Tiers"
)

// SessionResponse is the JSON body of a successful session creation.
type SessionResponse struct {
	SessionID string `json:"session_id"`
}

// FrameResponse is the JSON body of a successful frame append.
type FrameResponse struct {
	Field string `json:"field"`
	// FrameIndex is the zero-based position of the frame in its stream.
	FrameIndex int  `json:"frame_index"`
	Keyframe   bool `json:"keyframe"`
	Forced     bool `json:"forced,omitempty"`
	// Object is the content address (hex SHA-256) the frame bytes were
	// persisted under.
	Object string `json:"object"`
	Bytes  int64  `json:"bytes"`
}

// SealResponse is the JSON body of a successful session seal.
type SealResponse struct {
	// CheckpointID is the content address of the manifest — the handle every
	// checkpoint read endpoint takes.
	CheckpointID string `json:"checkpoint_id"`
	Fields       int    `json:"fields"`
	Frames       int    `json:"frames"`
	Bytes        int64  `json:"bytes"`
}

// CheckpointFieldInfo summarizes one field stream of a checkpoint.
type CheckpointFieldInfo struct {
	Name      string `json:"name"`
	Layout    string `json:"layout"`
	Curve     string `json:"curve"`
	Codec     string `json:"codec"`
	Snapshots int    `json:"snapshots"`
	Keyframes int    `json:"keyframes"`
	Bytes     int64  `json:"bytes"`
	// Bounds is the per-snapshot resolved absolute error bound.
	Bounds []float64 `json:"bounds"`
}

// CheckpointResponse is the JSON body of GET /v1/checkpoints/{id}.
type CheckpointResponse struct {
	CheckpointID string                `json:"checkpoint_id"`
	Fields       []CheckpointFieldInfo `json:"fields"`
}
