// Command fuzzseed regenerates the committed fuzz corpus seeds under each
// package's testdata/fuzz/<FuzzTarget>/ directory. The committed seeds give
// CI's short -fuzztime smoke runs immediate coverage of the interesting
// regions (valid payloads, truncations, bit flips) instead of starting from
// the trivial f.Add seeds every run; they also execute as regular test
// cases during plain `go test`.
//
//	go run ./internal/tools/fuzzseed
//
// Run from the repository root after changing any serialized format, and
// commit the result.
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"

	zmesh "repro"

	"repro/internal/amr"
	"repro/internal/bitstream"
	"repro/internal/compress"
	"repro/internal/compress/chunked"
	"repro/internal/compress/container"
	"repro/internal/compress/lossless"
	"repro/internal/compress/multilevel"
	"repro/internal/compress/sz"
	"repro/internal/compress/zfp"
	"repro/internal/frame"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "fuzzseed: %v\n", err)
		os.Exit(1)
	}
}

// corpusEntry renders arguments in the `go test fuzz v1` corpus encoding.
func corpusEntry(args ...any) []byte {
	out := "go test fuzz v1\n"
	for _, a := range args {
		switch v := a.(type) {
		case []byte:
			out += "[]byte(" + strconv.Quote(string(v)) + ")\n"
		case bool:
			out += fmt.Sprintf("bool(%v)\n", v)
		default:
			panic(fmt.Sprintf("unsupported corpus arg type %T", a))
		}
	}
	return []byte(out)
}

func write(dir, name string, entry []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, entry, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// wave is the seed signal: smooth enough to compress well, structured
// enough that every codec exercises its real encode paths.
func wave(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		x := float64(i) / float64(n)
		vals[i] = math.Sin(12*x) + 0.3*math.Cos(31*x)
	}
	return vals
}

func flipMiddle(buf []byte) []byte {
	out := append([]byte(nil), buf...)
	if len(out) > 0 {
		out[len(out)/2] ^= 0xff
	}
	return out
}

func run() error {
	vals := wave(256)
	dims := []int{len(vals)}
	bound := compress.AbsBound(1e-3)

	codecs := []struct {
		dir   string
		codec compress.Compressor
	}{
		{"internal/compress/sz", sz.New()},
		{"internal/compress/zfp", zfp.New()},
		{"internal/compress/lossless", lossless.New()},
		{"internal/compress/chunked", chunked.New(sz.New())},
	}
	for _, c := range codecs {
		payload, err := c.codec.Compress(vals, dims, bound)
		if err != nil {
			return fmt.Errorf("%s: %w", c.dir, err)
		}
		dir := filepath.Join(c.dir, "testdata", "fuzz", "FuzzDecompress")
		if err := write(dir, "seed-valid-wave", corpusEntry(payload)); err != nil {
			return err
		}
		if err := write(dir, "seed-bitflip", corpusEntry(flipMiddle(payload))); err != nil {
			return err
		}
		if len(payload) > 4 {
			if err := write(dir, "seed-truncated", corpusEntry(payload[:len(payload)/2])); err != nil {
				return err
			}
		}
	}

	if err := forgedTableSeeds(); err != nil {
		return err
	}
	// A 17-byte chunked header declaring 2^28 one-value chunks: the count
	// must fail against the bytes that remain before the table is sized.
	var forged []byte
	for _, f := range []uint64{0x43484b31, 1, 1 << 28, 1, 1 << 28} { // magic, version, values, chunk size, chunks
		forged = binary.AppendUvarint(forged, f)
	}
	if err := write("internal/compress/chunked/testdata/fuzz/FuzzDecompress", "seed-forged-chunk-table", corpusEntry(forged)); err != nil {
		return err
	}

	// Progressive tiers: the first two tiers of a real cascade. The fuzz
	// target decodes its input as tier 0, so tier 1 is refused for its index
	// only after its header and codes have been parsed.
	tiers, err := multilevel.New().CompressProgressive(vals, dims, compress.Abs, []float64{1e-1, 1e-3})
	if err != nil {
		return err
	}
	progDir := filepath.Join("internal/compress/multilevel", "testdata", "fuzz", "FuzzDecompressProgressive")
	if err := write(progDir, "seed-valid-wave", corpusEntry(tiers[0].Payload)); err != nil {
		return err
	}
	if err := write(progDir, "seed-valid-tier1", corpusEntry(tiers[1].Payload)); err != nil {
		return err
	}
	if err := write(progDir, "seed-bitflip", corpusEntry(flipMiddle(tiers[0].Payload))); err != nil {
		return err
	}

	// Container envelope: a well-formed frame plus a checksum-corrupted twin.
	szPayload, err := sz.New().Compress(vals, dims, bound)
	if err != nil {
		return err
	}
	env, err := container.Wrap("sz", len(vals), szPayload)
	if err != nil {
		return err
	}
	envDir := filepath.Join("internal/compress/container", "testdata", "fuzz", "FuzzUnwrap")
	if err := write(envDir, "seed-valid-envelope", corpusEntry(env)); err != nil {
		return err
	}
	corrupt := append([]byte(nil), env...)
	corrupt[len(corrupt)-1] ^= 0x01
	if err := write(envDir, "seed-bad-checksum", corpusEntry(corrupt)); err != nil {
		return err
	}

	// Bit reader: data plus an op script mixing aligned and straddling reads.
	bitDir := filepath.Join("internal/bitstream", "testdata", "fuzz", "FuzzReader")
	if err := write(bitDir, "seed-mixed-ops",
		corpusEntry([]byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x80, 0x7f}, []byte{3, 13, 1, 64, 8, 5, 32})); err != nil {
		return err
	}

	// Bounded reader: a varint, a byte, a u32, a count of two 3-byte
	// elements, the elements, then a padded varint the last op must refuse.
	frameData := binary.AppendUvarint(nil, 300)
	frameData = append(frameData, 7, 0xde, 0xad, 0xbe, 0xef, 2, 'a', 'b', 'c', 'd', 'e', 'f', 0x85, 0x80, 0x00)
	if err := write(filepath.Join("internal/frame", "testdata", "fuzz", "FuzzReader"), "seed-field-list",
		corpusEntry(frameData, []byte{0, 1, 2, 5, 2, 4, 6, 0})); err != nil {
		return err
	}

	// Temporal frames: a real keyframe (payload + topology) and a delta
	// frame against it, in the root package's corpus.
	m, err := amr.NewMesh(2, 8, [3]int{1, 1, 1})
	if err != nil {
		return err
	}
	if err := m.Refine(m.Roots()[0]); err != nil {
		return err
	}
	n := m.NumBlocks() * m.CellsPerBlock()
	stream := wave(n)
	framePayload, err := sz.New().Compress(stream, []int{n}, bound)
	if err != nil {
		return err
	}
	frame, err := container.Wrap("sz", n, framePayload)
	if err != nil {
		return err
	}
	tempDir := filepath.Join("testdata", "fuzz", "FuzzDecompressSnapshot")
	if err := write(tempDir, "seed-keyframe", corpusEntry(true, frame, m.Structure())); err != nil {
		return err
	}
	if err := write(tempDir, "seed-delta-no-key", corpusEntry(false, frame, []byte{})); err != nil {
		return err
	}
	if err := write(tempDir, "seed-keyframe-bitflip", corpusEntry(true, flipMiddle(frame), m.Structure())); err != nil {
		return err
	}
	if err := temporalWireSeeds(); err != nil {
		return err
	}
	return tacSeeds()
}

// forgedTableSeeds writes, for each decoder behind the shared entropy stage
// (sz and the multilevel tiers), an otherwise well-formed raw payload whose
// Huffman stream is 10 bytes declaring 2^28 symbols and 2^15 table entries
// and breaking off in the second. The table reader must fail on the count
// without sizing anything from it or from the declared alphabet.
func forgedTableSeeds() error {
	gamma := func(w *bitstream.Writer, v uint64) { // Elias-gamma, as internal/huffman reads it
		n := uint(bits.Len64(v)) - 1
		w.WriteBits(0, n)
		w.WriteBit(1)
		w.WriteBits(v, n)
	}
	w := bitstream.NewWriter(nil)
	w.WriteBits(1<<28, 32) // declared alphabet
	gamma(w, 1<<15+1)      // declared entries
	gamma(w, 1)            // symbol 0 …
	gamma(w, 2*5+1)        // … of length 5
	gamma(w, 2)            // symbol 2, and nothing more
	table := w.Bytes()
	body := func(fields ...uint64) []byte {
		b := []byte{0} // marker: raw, no DEFLATE
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return append(b, table...)
	}
	const values, intervals = 64, 65536
	bound, coded := math.Float64bits(1e-3), uint64(len(table))
	seeds := []struct {
		dir     string
		payload []byte
	}{ // magic, version, [tier,] ndims, extent, [predictor, reserved,] intervals, bound, escapes, coded length[, reserved]
		{"internal/compress/sz/testdata/fuzz/FuzzDecompress", body(0x535a4731, 3, 1, values, 1, 0, intervals, bound, 0, coded, 0)},
		{"internal/compress/multilevel/testdata/fuzz/FuzzDecompressProgressive", body(0x4d474c54, 2, 0, 1, values, intervals, bound, 0, coded)},
	}
	for _, s := range seeds {
		if err := write(s.dir, "seed-forged-table", corpusEntry(s.payload)); err != nil {
			return err
		}
	}
	return nil
}

// resealWire frames a hand-built body in the shared ZMT1/ZMM1 envelope
// (magic + body + CRC32-C over the body), so seeds probing the length and
// count validation are not rejected by the checksum first.
func resealWire(magic string, body []byte) []byte {
	b := append([]byte(magic), body...)
	return binary.LittleEndian.AppendUint32(b, frame.Checksum(body))
}

// temporalWireSeeds writes the ZMT1 temporal-frame and ZMM1 manifest corpora
// for internal/wire: real keyframe and delta frames off a temporal encoder,
// their mutations, and handcrafted declared-length/count bombs that must be
// rejected before any allocation.
func temporalWireSeeds() error {
	m, err := zmesh.NewMesh(2, 8, [3]int{2, 1, 1})
	if err != nil {
		return err
	}
	if err := m.Refine(m.Roots()[0]); err != nil {
		return err
	}
	enc, err := zmesh.NewTemporalEncoder(zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"})
	if err != nil {
		return err
	}
	var frames [][]byte
	var rows []wire.ManifestFrame
	for i := 0; i < 2; i++ {
		phase := 0.3 * float64(i)
		f := zmesh.SampleField(m, "dens", func(x, y, z float64) float64 {
			return math.Sin(9*x+phase) * math.Cos(5*y)
		})
		tc, err := enc.CompressSnapshot(f, zmesh.AbsBound(1e-3))
		if err != nil {
			return err
		}
		frame, err := wire.EncodeTemporalFrame(tc.WireFrame(false))
		if err != nil {
			return err
		}
		frames = append(frames, frame)
		sum := sha256.Sum256(frame)
		rows = append(rows, wire.ManifestFrame{
			Keyframe: tc.Keyframe, NumValues: tc.NumValues, Bound: tc.Bound,
			Bytes: int64(len(frame)), Object: hex.EncodeToString(sum[:]),
		})
	}

	frameDir := filepath.Join("internal/wire", "testdata", "fuzz", "FuzzTemporalFrame")
	if err := write(frameDir, "seed-keyframe", corpusEntry(frames[0])); err != nil {
		return err
	}
	if err := write(frameDir, "seed-delta", corpusEntry(frames[1])); err != nil {
		return err
	}
	if err := write(frameDir, "seed-bitflip", corpusEntry(flipMiddle(frames[0]))); err != nil {
		return err
	}
	if err := write(frameDir, "seed-truncated", corpusEntry(frames[0][:len(frames[0])/2])); err != nil {
		return err
	}
	// A keyframe header whose declared payload length (2^60) dwarfs the
	// buffer, with a valid CRC so only the length check can reject it.
	appendStr := func(b []byte, s string) []byte {
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	}
	bomb := []byte{1, 1} // version, keyframe flag
	for _, s := range []string{"dens", "zmesh", "hilbert", "sz"} {
		bomb = appendStr(bomb, s)
	}
	bomb = binary.AppendUvarint(bomb, 128)           // numValues
	bomb = binary.LittleEndian.AppendUint64(bomb, 0) // bound bits
	bomb = binary.AppendUvarint(bomb, 4)             // structure len
	bomb = append(bomb, "mesh"...)                   //
	bomb = binary.AppendUvarint(bomb, 1<<60)         // payload-length bomb
	if err := write(frameDir, "seed-payload-len-bomb", corpusEntry(resealWire("ZMT1", bomb))); err != nil {
		return err
	}

	manifest, err := wire.EncodeManifest(&wire.Manifest{Fields: []wire.ManifestField{{
		Name: "dens", Layout: "zmesh", Curve: "hilbert", Codec: "sz", Frames: rows,
	}}})
	if err != nil {
		return err
	}
	manifestDir := filepath.Join("internal/wire", "testdata", "fuzz", "FuzzManifest")
	if err := write(manifestDir, "seed-valid", corpusEntry(manifest)); err != nil {
		return err
	}
	if err := write(manifestDir, "seed-bitflip", corpusEntry(flipMiddle(manifest))); err != nil {
		return err
	}
	if err := write(manifestDir, "seed-truncated", corpusEntry(manifest[:len(manifest)/2])); err != nil {
		return err
	}
	// One field declaring 2^60 frames: the parser must refuse the count
	// against the remaining bytes before sizing anything from it.
	mbomb := []byte{1}                     // version
	mbomb = binary.AppendUvarint(mbomb, 1) // one field
	for _, s := range []string{"dens", "zmesh", "hilbert", "sz"} {
		mbomb = appendStr(mbomb, s)
	}
	mbomb = binary.AppendUvarint(mbomb, 1<<60) // frame-count bomb
	return write(manifestDir, "seed-frame-count-bomb", corpusEntry(resealWire("ZMM1", mbomb)))
}

// tacSeeds writes the zTAC frame corpus for the root package's
// FuzzTACFrame: a valid frame for the same sedov checkpoint the fuzz target
// decodes against (extracted bare from the container envelope — the fuzz
// body seals each mutation in a fresh one, so mutations reach the frame
// parser instead of dying on the envelope CRC), a bit flip,
// a truncation, and a handcrafted declared-box-count bomb that must be
// rejected before any allocation.
func tacSeeds() error {
	ck, err := zmesh.Generate("sedov", zmesh.GenerateOptions{
		Resolution: 64, TScale: 0.5, BlockSize: 8,
		RootDims: [3]int{2, 2, 1}, MaxDepth: 2, Threshold: 0.35,
	})
	if err != nil {
		return fmt.Errorf("tac seeds: %w", err)
	}
	dens, ok := ck.Field("dens")
	if !ok {
		return fmt.Errorf("tac seeds: dens missing")
	}
	enc, err := zmesh.NewEncoder(ck.Mesh, zmesh.Options{Layout: zmesh.LayoutTAC, Curve: "hilbert", Codec: "sz"})
	if err != nil {
		return err
	}
	c, err := enc.CompressField(dens, compress.AbsBound(1e-3))
	if err != nil {
		return err
	}
	env, err := container.Unwrap(c.Payload)
	if err != nil {
		return fmt.Errorf("tac seeds: unwrap: %w", err)
	}
	tacFrame := env.Payload
	dir := filepath.Join("testdata", "fuzz", "FuzzTACFrame")
	if err := write(dir, "seed-valid-frame", corpusEntry(tacFrame)); err != nil {
		return err
	}
	if err := write(dir, "seed-bitflip", corpusEntry(flipMiddle(tacFrame))); err != nil {
		return err
	}
	if err := write(dir, "seed-truncated", corpusEntry(tacFrame[:len(tacFrame)/2])); err != nil {
		return err
	}
	// Header declaring 2^60 boxes over the real value count: the decoder
	// must reject the count against the recipe's plan before sizing anything
	// from it.
	bomb := append([]byte("zTAC\x01"), binary.AppendUvarint(nil, uint64(c.NumValues))...)
	bomb = binary.AppendUvarint(bomb, 1<<60)
	return write(dir, "seed-box-count-bomb", corpusEntry(bomb))
}
