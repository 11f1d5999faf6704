// Package wire defines the zmeshd HTTP protocol constants and the small
// encoding helpers shared by the server (internal/server) and the public
// client package. Keeping them in one place makes the wire format a single
// point of truth: header names, the error-bound grammar, and the raw
// float64 framing used for field value streams.
//
// Protocol summary (see DESIGN.md "Service architecture"):
//
//	POST /v1/meshes                      body = Mesh.Structure bytes
//	  -> 200/201 JSON RegisterResponse   mesh_id = SHA-256(structure)
//	POST /v1/meshes/{id}/compress        body = float64-LE level-order values
//	  ?field=&layout=&curve=&codec=&bound=
//	  -> 200 container-enveloped payload, X-Zmesh-* metadata headers
//	POST /v1/meshes/{id}/decompress      body = container-enveloped payload
//	  ?field=&layout=&curve=
//	  -> 200 float64-LE level-order values, X-Zmesh-Num-Values header
//
// Overloaded servers shed with 429 + Retry-After (seconds); errors are JSON
// ErrorResponse bodies with conventional status codes.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/compress"
)

// Paths and path helpers.
const (
	// PathMeshes is the mesh registration collection.
	PathMeshes = "/v1/meshes"
	// PathVars is where the server exposes its expvar page (telemetry
	// registry included).
	PathVars = "/debug/vars"
	// PathHealth is the liveness probe.
	PathHealth = "/healthz"
	// PathRing is the cluster-topology endpoint: a GET returns the
	// RingResponse a routing client needs to compute placement (404 on a
	// single-node daemon). Clients fetch it at startup and re-fetch it
	// whenever a replica answers 421 Misdirected Request.
	PathRing = "/v1/ring"
)

// CompressPath returns the compress endpoint for a registered mesh.
func CompressPath(meshID string) string { return PathMeshes + "/" + meshID + "/compress" }

// DecompressPath returns the decompress endpoint for a registered mesh.
func DecompressPath(meshID string) string { return PathMeshes + "/" + meshID + "/decompress" }

// CheckpointPath returns the batch checkpoint endpoint: one request
// compresses every field of a snapshot (batch.go framing both ways)
// against one cached encoder.
func CheckpointPath(meshID string) string { return PathMeshes + "/" + meshID + "/checkpoint" }

// StructurePath returns the peer structure-fetch endpoint: a GET yields the
// raw registered structure bytes (the preimage of the mesh id), or 404. A
// replica that receives traffic for a mesh it has never seen pulls the
// structure from a peer owner through this endpoint, verifies the SHA-256
// matches the requested id, and rebuilds the recipe locally.
func StructurePath(meshID string) string { return PathMeshes + "/" + meshID + "/structure" }

// Metadata headers. Compression responses carry the full artifact metadata
// so a client can reconstruct a zmesh.Compressed without parsing the
// envelope.
const (
	HeaderField     = "X-Zmesh-Field"
	HeaderLayout    = "X-Zmesh-Layout"
	HeaderCurve     = "X-Zmesh-Curve"
	HeaderCodec     = "X-Zmesh-Codec"
	HeaderNumValues = "X-Zmesh-Num-Values"

	ContentTypeBinary = "application/octet-stream"
	ContentTypeJSON   = "application/json"
)

// Query parameter names of the compress/decompress endpoints.
const (
	ParamField  = "field"
	ParamLayout = "layout"
	ParamCurve  = "curve"
	ParamCodec  = "codec"
	ParamBound  = "bound"
)

// RegisterResponse is the JSON body of a successful mesh registration.
type RegisterResponse struct {
	// MeshID is the hex SHA-256 of the structure bytes — content-addressed,
	// so re-registering the same topology is idempotent.
	MeshID string `json:"mesh_id"`
	// Blocks and Cells describe the decoded topology.
	Blocks int `json:"blocks"`
	Cells  int `json:"cells"`
	// Created is false when the mesh was already registered (the request
	// only refreshed its cache recency).
	Created bool `json:"created"`
}

// ErrorResponse is the JSON body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// RingResponse is the JSON body of GET /v1/ring: everything a client needs
// to rebuild the cluster's consistent-hash ring locally. Placement is a
// pure function of (nodes, vnodes, replication), so a client holding this
// response routes identically to every replica.
type RingResponse struct {
	// Nodes is the full cluster membership as advertised base URLs
	// (sorted; node identity is the verbatim string).
	Nodes []string `json:"nodes"`
	// VNodes is the virtual-node count per node.
	VNodes int `json:"vnodes"`
	// Replication is how many owners hold each mesh.
	Replication int `json:"replication"`
	// Self is the advertised URL of the replica that answered.
	Self string `json:"self"`
}

// FormatBound renders an error bound in the wire grammar: "abs:<v>" or
// "rel:<v>".
func FormatBound(b compress.Bound) string {
	return fmt.Sprintf("%s:%g", b.Mode, b.Value)
}

// ParseBound parses the "abs:<v>" / "rel:<v>" grammar produced by
// FormatBound. The value must be a positive finite float.
func ParseBound(s string) (compress.Bound, error) {
	mode, val, ok := strings.Cut(s, ":")
	if !ok {
		return compress.Bound{}, fmt.Errorf("wire: bound %q: want \"abs:<v>\" or \"rel:<v>\"", s)
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return compress.Bound{}, fmt.Errorf("wire: bound %q: %w", s, err)
	}
	if !(v > 0) || math.IsInf(v, 0) {
		return compress.Bound{}, fmt.Errorf("wire: bound %q: value must be positive and finite", s)
	}
	switch mode {
	case "abs":
		return compress.AbsBound(v), nil
	case "rel":
		return compress.RelBound(v), nil
	}
	return compress.Bound{}, fmt.Errorf("wire: bound %q: unknown mode %q", s, mode)
}

// AppendFloats appends vals to dst in the wire framing: little-endian IEEE
// 754 float64, no header — the stream length is the byte length / 8. On
// little-endian builds the append is a single bulk copy via ViewBytes;
// otherwise it falls back to the per-element encoder.
func AppendFloats(dst []byte, vals []float64) []byte {
	if b, ok := ViewBytes(vals); ok {
		return append(dst, b...)
	}
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeFloats decodes a float64-LE stream. The byte length must be a
// multiple of 8.
func DecodeFloats(buf []byte) ([]float64, error) {
	return DecodeFloatsInto(nil, buf)
}

// DecodeFloatsInto is DecodeFloats with a caller-provided destination,
// reused when its capacity suffices — the hot-path variant for pooled
// request scratch. Validation runs before any allocation, so a ragged
// stream costs nothing. The result never aliases buf.
func DecodeFloatsInto(dst []float64, buf []byte) ([]float64, error) {
	if len(buf)%8 != 0 {
		return nil, fmt.Errorf("wire: value stream is %d bytes, not a multiple of 8", len(buf))
	}
	n := len(buf) / 8
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]float64, n)
	}
	if src, ok := ViewFloats(buf); ok {
		copy(dst, src)
		return dst, nil
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return dst, nil
}
