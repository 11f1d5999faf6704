// Package lossless provides the DEFLATE-based lossless baseline codec
// ("gzip" in the evaluation tables). Scientific-data papers, zMesh
// included, quote lossless general-purpose compression as the floor that
// error-bounded lossy compressors must clear; on floating-point fields it
// typically achieves ratios barely above 1.
package lossless

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/compress"
	"repro/internal/frame"
)

const (
	magic   = 0x4c4f5331 // "LOS1"
	version = 1
)

// Compressor is the lossless codec. The error bound is accepted for
// interface compatibility and trivially satisfied (reconstruction is
// exact).
type Compressor struct {
	// Level is the flate level; 0 means flate.DefaultCompression.
	Level int
}

// New returns a lossless codec at the default level.
func New() *Compressor { return &Compressor{} }

func init() {
	compress.Register("gzip", func() compress.Compressor { return New() })
}

// Name implements compress.Compressor.
func (c *Compressor) Name() string { return "gzip" }

// Compress implements compress.Compressor. The bound is ignored — output
// reconstructs exactly.
func (c *Compressor) Compress(data []float64, dims []int, bound compress.Bound) ([]byte, error) {
	if err := compress.Validate(data, dims); err != nil {
		return nil, err
	}
	head := make([]byte, 0, 32)
	head = binary.AppendUvarint(head, magic)
	head = binary.AppendUvarint(head, version)
	head = binary.AppendUvarint(head, uint64(len(dims)))
	for _, d := range dims {
		head = binary.AppendUvarint(head, uint64(d))
	}
	var out bytes.Buffer
	out.Write(head)
	level := c.Level
	if level == 0 {
		level = flate.DefaultCompression
	}
	fw, err := flate.NewWriter(&out, level)
	if err != nil {
		return nil, err
	}
	raw := make([]byte, 8)
	for _, v := range data {
		binary.LittleEndian.PutUint64(raw, math.Float64bits(v))
		if _, err := fw.Write(raw); err != nil {
			return nil, err
		}
	}
	if err := fw.Close(); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// ErrCorrupt is returned for malformed payloads.
var ErrCorrupt = errors.New("lossless: corrupt payload")

// Decompress implements compress.Compressor.
func (c *Compressor) Decompress(buf []byte) ([]float64, error) {
	r := frame.NewReader(buf)
	if r.Uvarint() != magic || r.Bad() {
		return nil, ErrCorrupt
	}
	if ver := r.Uvarint(); ver != version || r.Bad() {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	_, n, err := compress.ReadShape(&r)
	if err == nil {
		err = compress.PlausibleCount(n, r.Len())
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	// Read at most one byte past the expected length: enough to detect a
	// stream that is too long without inflating an unbounded DEFLATE bomb.
	body, err := io.ReadAll(io.LimitReader(flate.NewReader(bytes.NewReader(r.Rest())), int64(n)*8+1))
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	if len(body) != n*8 {
		return nil, fmt.Errorf("%w: %d bytes for %d values", ErrCorrupt, len(body), n)
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return out, nil
}
