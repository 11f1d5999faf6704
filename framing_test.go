package zmesh

import (
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/amr"
	"repro/internal/compress"
	"repro/internal/compress/chunked"
	"repro/internal/compress/container"
	"repro/internal/compress/entropy"
	"repro/internal/compress/lossless"
	"repro/internal/compress/multilevel"
	"repro/internal/compress/sz"
	"repro/internal/compress/zfp"
	"repro/internal/frame"
	"repro/internal/wire"
)

// padVarint re-encodes the uvarint at b[off:] non-minimally: its last group
// gets a continuation bit and the groups 0x80 0x00 follow. encoding/binary
// reads the same value back; internal/frame must not.
func padVarint(b []byte, off int) []byte {
	end := off
	for b[end]&0x80 != 0 {
		end++
	}
	out := append([]byte(nil), b[:end]...)
	out = append(out, b[end]|0x80, 0x80, 0x00)
	return append(out, b[end+1:]...)
}

// resealed recomputes the trailing CRC-32C of a ZMT1 / ZMM1 buffer (4-byte
// magic, body, crc) after the body was edited.
func resealed(b []byte) []byte {
	body := b[4 : len(b)-4]
	return binary.LittleEndian.AppendUint32(b[:len(b)-4:len(b)-4], frame.Checksum(body))
}

// rawBody is a sealed sz payload or multilevel tier in the raw (marker 0)
// form, so its header can be edited in the clear.
func rawBody(t *testing.T, payload []byte) []byte {
	t.Helper()
	work := entropy.Get(0)
	defer work.Put()
	body, err := work.Open(payload)
	if err != nil {
		t.Fatal(err)
	}
	return append([]byte{0}, body...)
}

// One valid artifact per buffer grammar in the repo. Every strict prefix, and
// the artifact with its first header varint padded (checksum recomputed where
// the grammar has one over its header), must be refused without a panic and
// with the sentinel the grammar's package exports. zTAC exports none: its
// errors are recognised by their "zmesh: tac frame" prefix.
func TestEveryGrammarRejectsPrefixesAndPadding(t *testing.T) {
	vals := make([]float64, 300)
	for i := range vals {
		x := float64(i) / float64(len(vals))
		vals[i] = math.Sin(12*x) + 0.3*math.Cos(31*x)
	}
	dims, bound := []int{len(vals)}, compress.AbsBound(1e-3)
	codec := func(c compress.Compressor) ([]byte, func([]byte) error) {
		buf, err := c.Compress(vals, dims, bound)
		if err != nil {
			t.Fatal(err)
		}
		return buf, func(b []byte) error { _, err := c.Decompress(b); return err }
	}
	is := func(sentinels ...error) func(error) bool {
		return func(err error) bool {
			for _, s := range sentinels {
				if errors.Is(err, s) {
					return true
				}
			}
			return false
		}
	}

	szBuf, szDec := codec(sz.New())
	zfpBuf, zfpDec := codec(zfp.New())
	tiers, err := multilevel.New().CompressProgressive(vals, dims, compress.Abs, []float64{1e-3})
	if err != nil {
		t.Fatal(err)
	}
	tierDec := func(b []byte) error {
		_, err := multilevel.New().DecompressProgressive([]multilevel.Tier{{Bound: 1e-3, Payload: b}})
		return err
	}
	gzBuf, gzDec := codec(lossless.New())
	chkBuf, chkDec := codec(&chunked.Compressor{Base: sz.New(), ChunkSize: 100})

	ck := checkpoint(t)
	structure := ck.Mesh.Structure()
	envelope, err := container.Wrap("sz", len(vals), szBuf)
	if err != nil {
		t.Fatal(err)
	}
	tacCodec, tacDims, tacPlan, tacWant, tacFrame := tacTestFrame(t)
	temporal, err := wire.EncodeTemporalFrame(&wire.TemporalFrame{
		Keyframe: true, Field: "dens", Layout: "zmesh", Curve: "hilbert", Codec: "sz",
		NumValues: len(vals), Bound: 1e-3, Structure: structure, Payload: envelope,
	})
	if err != nil {
		t.Fatal(err)
	}
	manifest, err := wire.EncodeManifest(&wire.Manifest{Fields: []wire.ManifestField{{
		Name: "dens", Layout: "zmesh", Curve: "hilbert", Codec: "sz",
		Frames: []wire.ManifestFrame{
			{Keyframe: true, NumValues: len(vals), Bound: 1e-3, Bytes: int64(len(temporal)), Object: strings.Repeat("ab", 32)},
			{NumValues: len(vals), Bound: 1e-3, Bytes: 99, Object: strings.Repeat("cd", 32)},
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range []struct {
		name    string
		valid   []byte
		padded  []byte // valid, first header varint padded
		decode  func([]byte) error
		refused func(error) bool
	}{
		{"sz", szBuf, padVarint(rawBody(t, szBuf), 1), szDec, is(sz.ErrCorrupt)},
		{"zfp", zfpBuf, padVarint(zfpBuf, 0), zfpDec, is(zfp.ErrCorrupt)},
		{"mgl", tiers[0].Payload, padVarint(rawBody(t, tiers[0].Payload), 1), tierDec, is(multilevel.ErrCorrupt)}, // the MGLT tier
		{"lossless", gzBuf, padVarint(gzBuf, 0), gzDec, is(lossless.ErrCorrupt)},
		{"chunked", chkBuf, padVarint(chkBuf, 0), chkDec, is(chunked.ErrCorrupt)},
		{"structure", structure, padVarint(structure, 0),
			func(b []byte) error { _, err := amr.MeshFromStructure(b); return err },
			is(amr.ErrBadStructure)},
		{"container", envelope, padVarint(envelope, len(container.Magic)+2+len("sz")),
			func(b []byte) error { _, err := container.Unwrap(b); return err },
			is(container.ErrCorrupt)},
		{"zTAC", tacFrame, padVarint(tacFrame, len(tacFrameMagic)+1),
			func(b []byte) error { _, err := tacDecodeStream(tacCodec, tacDims, tacPlan, tacWant, b); return err },
			func(err error) bool { return strings.HasPrefix(err.Error(), "zmesh: tac frame") }},
		{"ZMT1", temporal, resealed(padVarint(temporal, 4+2)),
			func(b []byte) error { _, err := wire.ParseTemporalFrame(b); return err },
			is(wire.ErrFrameMagic, wire.ErrFrameTruncated, wire.ErrFrameChecksum)},
		{"ZMM1", manifest, resealed(padVarint(manifest, 4+1)),
			func(b []byte) error { _, err := wire.ParseManifest(b); return err },
			is(wire.ErrManifestMagic, wire.ErrFrameTruncated, wire.ErrManifestChecksum)},
	} {
		t.Run(g.name, func(t *testing.T) {
			if err := g.decode(g.valid); err != nil {
				t.Fatalf("valid artifact refused: %v", err)
			}
			for cut := 0; cut < len(g.valid); cut++ {
				if err := g.decode(g.valid[:cut:cut]); err == nil {
					t.Fatalf("prefix of %d of %d bytes accepted", cut, len(g.valid))
				} else if !g.refused(err) {
					t.Fatalf("prefix of %d of %d bytes: %v is not the package's sentinel", cut, len(g.valid), err)
				}
			}
			if err := g.decode(g.padded); err == nil {
				t.Fatal("padded first header varint accepted")
			} else if !g.refused(err) {
				t.Fatalf("padded first header varint: %v is not the package's sentinel", err)
			}
		})
	}
}
