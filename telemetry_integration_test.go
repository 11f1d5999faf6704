package zmesh

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"repro/internal/amr"
	"repro/internal/compress"
	"repro/internal/compress/container"
)

// telemetryTestMesh builds a small refined mesh with one smooth field.
func telemetryTestMesh(t testing.TB) (*Mesh, *Field) {
	t.Helper()
	m, err := amr.NewMesh(2, 8, [3]int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Refine(m.Roots()[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Refine(m.Roots()[2]); err != nil {
		t.Fatal(err)
	}
	f := amr.NewField(m, "dens")
	f.FillFunc(func(x, y, z float64) float64 {
		return math.Sin(5*x)*math.Cos(4*y) + 0.1*x*y
	})
	return m, f
}

// TestInstrumentedRoundTrip walks a compress/decompress cycle with a
// registry attached to both sides and asserts every pipeline metric the
// design promises is populated.
func TestInstrumentedRoundTrip(t *testing.T) {
	m, f := telemetryTestMesh(t)
	f2 := amr.SampleField(m, "pres", func(x, y, z float64) float64 { return x + 2*y })
	reg := NewRegistry()
	enc, err := NewEncoder(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	enc.Instrument(reg)
	cs, err := enc.CompressFields([]*Field{f, f2}, RelBound(1e-4), 2)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecoder(m).Instrument(reg)
	if _, err := dec.DecompressFields(cs, 2); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if got := s.Counters["encode.fields"]; got != 2 {
		t.Errorf("encode.fields = %d, want 2", got)
	}
	if got := s.Counters["decode.fields"]; got != 2 {
		t.Errorf("decode.fields = %d, want 2", got)
	}
	if s.Counters["encode.bytes_raw"] == 0 || s.Counters["encode.bytes_compressed"] == 0 {
		t.Error("encode byte counters not populated")
	}
	if s.Counters["encode.bytes_raw"] != s.Counters["decode.bytes_raw"] {
		t.Errorf("raw bytes disagree: encode %d, decode %d",
			s.Counters["encode.bytes_raw"], s.Counters["decode.bytes_raw"])
	}
	if got := s.Counters["decode.recipe_builds"]; got != 1 {
		t.Errorf("decode.recipe_builds = %d, want 1 (one layout/curve key)", got)
	}
	if got := s.Counters["recipe.builds"]; got != 1 {
		t.Errorf("recipe.builds = %d, want 1", got)
	}
	if got := s.Counters["encode.errors"] + s.Counters["decode.errors"]; got != 0 {
		t.Errorf("error counters = %d, want 0", got)
	}
	for _, stage := range []string{
		"encode.stage.flatten", "encode.stage.reorder", "encode.stage.codec.sz",
		"encode.stage.wrap", "decode.stage.unwrap", "decode.stage.codec.sz",
		"decode.stage.restore", "recipe.setup",
	} {
		if ts, ok := s.Timers[stage]; !ok || ts.Count == 0 {
			t.Errorf("stage %q unobserved (have %v)", stage, s.Names())
		}
	}
	if rh := s.Histograms["encode.ratio_milli"]; rh.Count != 2 || rh.Min < 1000 {
		// Smooth data at 1e-4 must compress at least 1:1.
		t.Errorf("encode.ratio_milli = %+v, want 2 observations >= 1000", rh)
	}
	// JSON snapshot must serialize.
	var buf bytes.Buffer
	if err := WriteMetricsJSON(&buf, reg); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty JSON snapshot")
	}
}

// TestContainerCounters exercises the envelope counters: a corrupted
// envelope bumps container.checksum_failures and decode.errors.
func TestContainerCounters(t *testing.T) {
	m, f := telemetryTestMesh(t)
	enc, err := NewEncoder(m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, err := enc.CompressField(f, RelBound(1e-4))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	dec := NewDecoder(m).Instrument(reg)

	// Corruption: flip a payload byte so the CRC fails.
	bad := *c
	bad.Payload = append([]byte(nil), c.Payload...)
	bad.Payload[len(bad.Payload)-1] ^= 0xff
	if _, err := dec.DecompressField(&bad); err == nil {
		t.Fatal("corrupted payload decoded")
	}
	s := reg.Snapshot()
	if got := s.Counters["container.checksum_failures"]; got != 1 {
		t.Errorf("checksum_failures = %d, want 1", got)
	}
	if got := s.Counters["decode.errors"]; got != 1 {
		t.Errorf("decode.errors = %d, want 1", got)
	}
}

// TestTemporalTelemetry checks the key/delta/commit/abort accounting on
// both sides of a temporal stream.
func TestTemporalTelemetry(t *testing.T) {
	_, f := telemetryTestMesh(t)
	reg := NewRegistry()
	enc, err := NewTemporalEncoder(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	enc.Instrument(reg)
	bound := AbsBound(1e-3)
	frames := make([]*TemporalCompressed, 0, 3)
	for i := 0; i < 3; i++ {
		f.FillFunc(func(x, y, z float64) float64 {
			return math.Sin(5*x+float64(i)*0.1) * math.Cos(4*y)
		})
		fr, err := enc.CompressSnapshot(f, bound)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, fr)
	}
	s := reg.Snapshot()
	if s.Counters["temporal.encode.keyframes"] != 1 || s.Counters["temporal.encode.deltas"] != 2 {
		t.Errorf("encode key/delta = %d/%d, want 1/2",
			s.Counters["temporal.encode.keyframes"], s.Counters["temporal.encode.deltas"])
	}
	if s.Counters["temporal.encode.commits"] != 3 || s.Counters["temporal.encode.aborts"] != 0 {
		t.Errorf("encode commits/aborts = %d/%d, want 3/0",
			s.Counters["temporal.encode.commits"], s.Counters["temporal.encode.aborts"])
	}
	if s.Counters["recipe.builds"] != 1 {
		t.Errorf("recipe.builds = %d, want 1 (single keyframe)", s.Counters["recipe.builds"])
	}

	dreg := NewRegistry()
	dec := NewTemporalDecoder().Instrument(dreg)
	// A delta before any keyframe must abort without disturbing the stream.
	if _, err := dec.DecompressSnapshot(frames[1]); err == nil {
		t.Fatal("delta before keyframe decoded")
	}
	for i, fr := range frames {
		if i == 1 {
			// So must a bit-flipped delta, counted by the envelope it failed.
			bad := *fr
			bad.Payload = append([]byte(nil), fr.Payload...)
			bad.Payload[len(bad.Payload)-1] ^= 0xff
			if _, err := dec.DecompressSnapshot(&bad); !errors.Is(err, container.ErrChecksum) {
				t.Fatalf("bit-flipped delta: %v, want container.ErrChecksum", err)
			}
		}
		if _, err := dec.DecompressSnapshot(fr); err != nil {
			t.Fatal(err)
		}
	}
	ds := dreg.Snapshot()
	if got := ds.Counters["container.checksum_failures"]; got != 1 {
		t.Errorf("temporal decoder checksum_failures = %d, want 1", got)
	}
	if ds.Counters["temporal.decode.keyframes"] != 1 || ds.Counters["temporal.decode.deltas"] != 2 {
		t.Errorf("decode key/delta = %d/%d, want 1/2",
			ds.Counters["temporal.decode.keyframes"], ds.Counters["temporal.decode.deltas"])
	}
	if ds.Counters["temporal.decode.commits"] != 3 || ds.Counters["temporal.decode.aborts"] != 2 {
		t.Errorf("decode commits/aborts = %d/%d, want 3/2",
			ds.Counters["temporal.decode.commits"], ds.Counters["temporal.decode.aborts"])
	}
}

// rawCodec is a deterministic, allocation-stable codec for the allocation
// tests: the payload is the raw little-endian float64 stream.
type rawCodec struct{}

func (rawCodec) Name() string { return "rawtest" }

func (rawCodec) Compress(data []float64, dims []int, bound compress.Bound) ([]byte, error) {
	if err := compress.Validate(data, dims); err != nil {
		return nil, err
	}
	out := make([]byte, 8*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out, nil
}

func (rawCodec) Decompress(buf []byte) ([]float64, error) {
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

func init() { compress.Register("rawtest", func() compress.Compressor { return rawCodec{} }) }

// TestInstrumentationAllocs pins the allocation contract from the issue:
// the uninstrumented hot path allocates nothing beyond what the pipeline
// itself allocates, and attaching a registry adds zero steady-state
// allocations on top (the deterministic rawtest codec makes the pipeline's
// own allocation count stable run to run).
func TestInstrumentationAllocs(t *testing.T) {
	m, f := telemetryTestMesh(t)
	opt := Options{Layout: LayoutZMesh, Curve: "hilbert", Codec: "rawtest"}
	bound := AbsBound(1e-6)

	plain, err := NewEncoder(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewEncoder(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	inst.Instrument(NewRegistry())

	var scratchPlain, scratchInst Scratch
	compressOnce := func(e *Encoder, scratch *Scratch) {
		if _, err := e.compressInto(e.codec, f, bound, scratch); err != nil {
			t.Fatal(err)
		}
	}
	// Warm both scratches (first call grows buffers and, on the
	// instrumented side, initializes histogram sentinels).
	compressOnce(plain, &scratchPlain)
	compressOnce(inst, &scratchInst)

	base := testing.AllocsPerRun(50, func() { compressOnce(plain, &scratchPlain) })
	withReg := testing.AllocsPerRun(50, func() { compressOnce(inst, &scratchInst) })
	if withReg > base {
		t.Errorf("instrumented compress allocates %.1f/op, uninstrumented %.1f/op — telemetry must add zero", withReg, base)
	}

	// Decode side: same contract.
	c, err := plain.CompressField(f, bound)
	if err != nil {
		t.Fatal(err)
	}
	decPlain := NewDecoder(m)
	decInst := NewDecoder(m).Instrument(NewRegistry())
	var flatPlain, flatInst []float64
	decompressOnce := func(d *Decoder, flat *[]float64) {
		fld, fl, err := d.decompressInto(c, *flat)
		if err != nil || fld == nil {
			t.Fatal(err)
		}
		*flat = fl
	}
	decompressOnce(decPlain, &flatPlain)
	decompressOnce(decInst, &flatInst)
	dbase := testing.AllocsPerRun(50, func() { decompressOnce(decPlain, &flatPlain) })
	dwith := testing.AllocsPerRun(50, func() { decompressOnce(decInst, &flatInst) })
	if dwith > dbase {
		t.Errorf("instrumented decompress allocates %.1f/op, uninstrumented %.1f/op — telemetry must add zero", dwith, dbase)
	}
}

// Instrumented twins of the headline pipeline benchmarks, for measuring the
// overhead budget (≤ 2 % with a registry attached — see DESIGN.md).
func BenchmarkCompressSZZMeshInstrumented(b *testing.B) {
	ck, f := pipelineData(b)
	enc, err := NewEncoder(ck.Mesh, Options{Layout: LayoutZMesh, Curve: "hilbert", Codec: "sz"})
	if err != nil {
		b.Fatal(err)
	}
	enc.Instrument(NewRegistry())
	n := ck.Mesh.NumBlocks() * ck.Mesh.CellsPerBlock()
	b.SetBytes(int64(n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.CompressField(f, RelBound(1e-4)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressSZZMeshInstrumented(b *testing.B) {
	ck, f := pipelineData(b)
	enc, err := NewEncoder(ck.Mesh, Options{Layout: LayoutZMesh, Curve: "hilbert", Codec: "sz"})
	if err != nil {
		b.Fatal(err)
	}
	c, err := enc.CompressField(f, RelBound(1e-4))
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder(ck.Mesh).Instrument(NewRegistry())
	if _, err := dec.DecompressField(c); err != nil {
		b.Fatal(err)
	}
	n := ck.Mesh.NumBlocks() * ck.Mesh.CellsPerBlock()
	b.SetBytes(int64(n * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.DecompressField(c); err != nil {
			b.Fatal(err)
		}
	}
}
