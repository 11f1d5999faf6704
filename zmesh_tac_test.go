package zmesh

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/compress/container"
	"repro/internal/core"
)

// tacTestMesh3D builds a small 3-D hierarchy refined around a spherical
// front — the shock-shell geometry the TAC boxes target.
func tacTestMesh3D(t testing.TB) (*Mesh, *Field) {
	t.Helper()
	m, f, err := BuildAdaptive(BuildOptions{
		Dims: 3, BlockSize: 8, RootDims: [3]int{2, 2, 1}, MaxDepth: 2, Threshold: 0.3,
	}, func(x, y, z float64) float64 {
		r := math.Sqrt((x-0.5)*(x-0.5) + (y-0.5)*(y-0.5) + (z-0.25)*(z-0.25))
		return 1 / (1 + math.Exp((r-0.3)/0.02))
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.MaxLevel() < 1 {
		t.Fatal("3-D dataset did not refine")
	}
	return m, f
}

// The TAC frame must round-trip bit-consistently through every registered
// codec, in 2-D and 3-D, within the requested bound (exactly, for the
// lossless codec).
func TestTACRoundTripAllCodecs(t *testing.T) {
	ck := checkpoint(t)
	dens, _ := ck.Field("dens")
	m3, f3 := tacTestMesh3D(t)
	cases := []struct {
		name string
		mesh *Mesh
		fld  *Field
	}{
		{"2d", ck.Mesh, dens},
		{"3d", m3, f3},
	}
	bound := RelBound(1e-4)
	for _, tc := range cases {
		orig := FieldValues(tc.fld)
		eb := bound.Absolute(orig)
		for _, codec := range []string{"sz", "zfp", "gzip"} {
			enc, err := NewEncoder(tc.mesh, Options{Layout: LayoutTAC, Curve: "hilbert", Codec: codec})
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, codec, err)
			}
			c, err := enc.CompressField(tc.fld, bound)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, codec, err)
			}
			if c.Layout != LayoutTAC {
				t.Fatalf("%s/%s: artifact records layout %v", tc.name, codec, c.Layout)
			}
			dec := NewDecoder(tc.mesh)
			got, err := dec.DecompressField(c)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, codec, err)
			}
			e, err := MaxAbsError(tc.fld, got)
			if err != nil {
				t.Fatal(err)
			}
			if codec == "gzip" {
				if e != 0 {
					t.Fatalf("%s/gzip: lossless codec lost data (max err %g)", tc.name, e)
				}
			} else if e > eb {
				t.Fatalf("%s/%s: max error %g exceeds bound %g", tc.name, codec, e, eb)
			}
		}
	}
}

// The paper's stored-nothing property must hold for TAC too: payload + tree
// metadata suffice, the box plan is rebuilt from topology.
func TestTACDecodesFromStructureAlone(t *testing.T) {
	ck := checkpoint(t)
	pres, _ := ck.Field("pres")
	enc, err := NewEncoder(ck.Mesh, Options{Layout: LayoutTAC, Codec: "sz"})
	if err != nil {
		t.Fatal(err)
	}
	bound := RelBound(1e-3)
	c, err := enc.CompressField(pres, bound)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoderFromStructure(ck.Mesh.Structure())
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.DecompressField(c)
	if err != nil {
		t.Fatal(err)
	}
	e, err := MaxAbsError(pres, got)
	if err != nil {
		t.Fatal(err)
	}
	if eb := bound.Absolute(FieldValues(pres)); e > eb {
		t.Fatalf("max error %g exceeds bound %g", e, eb)
	}
}

// tacTestFrame builds one valid zTAC frame plus its plan for the corruption
// and fuzz tests.
func tacTestFrame(t testing.TB) (codec compress.Compressor, dims int, plan *core.TACPlan, want int, frame []byte) {
	t.Helper()
	ck := checkpoint(t)
	dens, _ := ck.Field("dens")
	recipe, err := core.BuildRecipe(ck.Mesh, core.TAC3D, "hilbert")
	if err != nil {
		t.Fatal(err)
	}
	ordered, err := recipe.Apply(FieldValues(dens))
	if err != nil {
		t.Fatal(err)
	}
	codec, err = compress.Get("sz")
	if err != nil {
		t.Fatal(err)
	}
	frame, err = tacEncodeStream(codec, ck.Mesh.Dims(), recipe.TACPlan(), ordered, RelBound(1e-4), &tacFrameScratch{})
	if err != nil {
		t.Fatal(err)
	}
	return codec, ck.Mesh.Dims(), recipe.TACPlan(), recipe.Len(), frame
}

// Structurally corrupt frames — malformed magic, counts, box tables — must
// be rejected with an error before the decoder sizes anything from them. The
// declared-box-count and declared-length bombs are the cases the frame
// format is specifically designed to cap.
func TestTACFrameRejectsCorruption(t *testing.T) {
	codec, dims, plan, want, frame := tacTestFrame(t)
	if _, err := tacDecodeStream(codec, dims, plan, want, frame); err != nil {
		t.Fatalf("pristine frame rejected: %v", err)
	}
	mutate := func(fn func(b []byte) []byte) []byte {
		return fn(append([]byte(nil), frame...))
	}
	cases := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"magic-only", mutate(func(b []byte) []byte { return b[:4] })},
		{"bad-magic", mutate(func(b []byte) []byte { b[0] = 'Z'; return b })},
		{"bad-version", mutate(func(b []byte) []byte { b[4] = 99; return b })},
		// Value count disagreeing with topology (byte 5 is the low uvarint
		// byte of nValues for this fixture's stream length).
		{"wrong-values", mutate(func(b []byte) []byte { b[5] ^= 0x01; return b })},
		{"truncated-after-version", mutate(func(b []byte) []byte { return b[:5] })},
		// A declared box count of 2^60: must be rejected against the plan
		// before any table allocation.
		{"box-count-bomb", mutate(func(b []byte) []byte {
			head := append([]byte(nil), b[:5]...)
			head = appendUvarintFor(head, uint64(want))
			head = appendUvarintFor(head, 1<<60)
			return head
		})},
		// A declared sub-payload length far past the frame end.
		{"box-length-bomb", mutate(func(b []byte) []byte {
			head := append([]byte(nil), b[:5]...)
			head = appendUvarintFor(head, uint64(want))
			head = appendUvarintFor(head, uint64(plan.NumBoxes()))
			head = appendUvarintFor(head, 1<<50)
			return head
		})},
		// Box table present but body missing: the table/payload accounting
		// must not pass.
		{"truncated-body", mutate(func(b []byte) []byte { return b[:len(b)-7] })},
		{"trailing-junk", mutate(func(b []byte) []byte { return append(b, 0xAB) })},
	}
	for _, tc := range cases {
		if _, err := tacDecodeStream(codec, dims, plan, want, tc.buf); err == nil {
			t.Errorf("%s: corrupt frame accepted", tc.name)
		}
	}
}

// appendUvarintFor is a tiny test-local uvarint appender (mirrors
// binary.AppendUvarint without importing it into the test).
func appendUvarintFor(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// A zTAC frame (one 4×4 box) written by the last commit whose sz encoder
// used prediction scheme 1, sealed in a current envelope: the box decoder's
// refusal of that stream version must surface through the frame, naming the
// box and the version.
func TestRegressionStreamRejected(t *testing.T) {
	frame, err := hex.DecodeString("7a5441430110013b" +
		"00b18ee99a05020204040101808004fcd3c697ddc998a83f00130d" +
		"0100807f0000007d0000007e000000010006000c001800100010020000002000")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := container.Wrap("sz", 16, frame)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMesh(2, 4, [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	c := &Compressed{FieldName: "dens", Layout: LayoutTAC, Curve: "hilbert", Codec: "sz", NumValues: 16, Payload: payload}
	_, err = NewDecoder(m).DecompressField(c)
	if err == nil || !strings.Contains(err.Error(), "tac box 0") || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("scheme 1 tac artifact: %v, want an error naming the box and the version", err)
	}
}

// FuzzTACFrame throws mutated zTAC frames at the full decode path. The
// fuzz body seals each mutated frame in a fresh container envelope, so the
// fuzzer reaches the frame parser rather than being stopped at the container
// CRC. Invariants: no panic, and anything that decodes has exactly the
// topology's cell count.
func FuzzTACFrame(f *testing.F) {
	_, _, _, want, frame := tacTestFrame(f)
	ck := checkpoint(f)
	f.Add(frame)
	f.Add(frame[:5])
	f.Add([]byte("zTAC\x01"))
	f.Add(append([]byte(nil), frame[:len(frame)-3]...))
	long := append([]byte(nil), frame...)
	long[6] ^= 0x40
	f.Add(long)
	f.Fuzz(func(t *testing.T, mutated []byte) {
		payload, err := container.Wrap("sz", want, mutated)
		if err != nil {
			t.Fatal(err)
		}
		dec := NewDecoder(ck.Mesh)
		c := &Compressed{
			FieldName: "dens", Layout: LayoutTAC, Curve: "hilbert",
			Codec: "sz", NumValues: want, Payload: payload,
		}
		vals, err := dec.DecompressValues(c)
		if err != nil {
			return
		}
		if len(vals) != want {
			t.Fatalf("decoded %d values, topology has %d", len(vals), want)
		}
	})
}

// The whole LayoutAuto policy, as a table: gzip keeps the application order,
// 3-D meshes and the transform codec get TAC boxes, everything else zMesh.
func TestResolveAuto(t *testing.T) {
	for _, tc := range []struct {
		dims  int
		codec string
		want  Layout
	}{
		{2, "sz", LayoutZMesh}, {2, "zfp", LayoutTAC}, {2, "gzip", LayoutLevel},
		{3, "sz", LayoutTAC}, {3, "zfp", LayoutTAC}, {3, "gzip", LayoutLevel},
	} {
		if got := ResolveAuto(tc.dims, tc.codec); got != tc.want {
			t.Errorf("ResolveAuto(%d, %q) = %v, want %v", tc.dims, tc.codec, got, tc.want)
		}
	}
}

// A LayoutAuto encoder IS the resolved layout's encoder: for every codec on
// a 2-D and a 3-D mesh its artifact records ResolveAuto's layout, matches
// the static encoder's artifact byte for byte, and decodes within the bound
// from the structure alone.
func TestAutoMatchesResolvedLayout(t *testing.T) {
	ck := checkpoint(t)
	dens, _ := ck.Field("dens")
	m3, f3 := tacTestMesh3D(t)
	bound := RelBound(1e-4)
	for _, tc := range []struct {
		name string
		mesh *Mesh
		fld  *Field
	}{
		{"2d", ck.Mesh, dens},
		{"3d", m3, f3},
	} {
		for _, codec := range []string{"sz", "zfp", "gzip"} {
			want := ResolveAuto(tc.mesh.Dims(), codec)
			compressAs := func(layout Layout) *Compressed {
				enc, err := NewEncoder(tc.mesh, Options{Layout: layout, Curve: "hilbert", Codec: codec})
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", tc.name, codec, layout, err)
				}
				c, err := enc.CompressField(tc.fld, bound)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", tc.name, codec, layout, err)
				}
				return c
			}
			ca, cs := compressAs(LayoutAuto), compressAs(want)
			if ca.Layout != want {
				t.Fatalf("%s/%s: auto artifact records %v, want %v", tc.name, codec, ca.Layout, want)
			}
			if !bytes.Equal(ca.Payload, cs.Payload) {
				t.Fatalf("%s/%s: auto artifact differs from the static %v artifact", tc.name, codec, want)
			}
			dec, err := NewDecoderFromStructure(tc.mesh.Structure())
			if err != nil {
				t.Fatal(err)
			}
			got, err := dec.DecompressValues(ca)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, codec, err)
			}
			orig := FieldValues(tc.fld)
			eb := bound.Absolute(orig)
			for i := range orig {
				if d := math.Abs(orig[i] - got[i]); d > eb {
					t.Fatalf("%s/%s: value %d error %g exceeds bound %g", tc.name, codec, i, d, eb)
				}
			}
		}
	}
}

// The CompressValues wire path must agree byte for byte with CompressField
// under auto — the zmeshd replicas rely on this for identical bytes.
func TestAutoValuesPathMatchesFieldPath(t *testing.T) {
	ck := checkpoint(t)
	dens, _ := ck.Field("dens")
	opt := Options{Layout: LayoutAuto, Codec: "zfp"}
	enc, err := NewEncoder(ck.Mesh, opt)
	if err != nil {
		t.Fatal(err)
	}
	bound := RelBound(1e-4)
	cf, err := enc.CompressField(dens, bound)
	if err != nil {
		t.Fatal(err)
	}
	cv, err := enc.CompressValues("dens", FieldValues(dens), bound)
	if err != nil {
		t.Fatal(err)
	}
	if cf.Layout != cv.Layout || !bytes.Equal(cf.Payload, cv.Payload) {
		t.Fatalf("field path picked %v, values path %v (payload equal: %v)",
			cf.Layout, cv.Layout, bytes.Equal(cf.Payload, cv.Payload))
	}
}

// LayoutAuto is resolved when an encoder is built, so an auto encoder
// serializes in its resolved layout; decoders and temporal encoders, which
// need the order an artifact records, must still refuse the name loudly.
func TestAutoRejectedWhereMeaningless(t *testing.T) {
	ck := checkpoint(t)
	dens, _ := ck.Field("dens")
	serialize := func(layout Layout) []float64 {
		enc, err := NewEncoder(ck.Mesh, Options{Layout: layout, Codec: "sz"})
		if err != nil {
			t.Fatal(err)
		}
		out, err := enc.Serialize(dens)
		if err != nil {
			t.Fatalf("Serialize under %v: %v", layout, err)
		}
		return out
	}
	got, want := serialize(LayoutAuto), serialize(ResolveAuto(ck.Mesh.Dims(), "sz"))
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("Serialize: auto stream differs from the resolved layout's at %d", i)
		}
	}
	if _, err := NewTemporalEncoder(Options{Layout: LayoutAuto}); !errors.Is(err, ErrAutoLayout) {
		t.Fatalf("NewTemporalEncoder: got %v, want ErrAutoLayout", err)
	}
	dec := NewDecoder(ck.Mesh)
	c := &Compressed{FieldName: "dens", Layout: LayoutAuto, Curve: "hilbert",
		Codec: "sz", NumValues: 1, Payload: []byte{1, 2, 3}}
	if _, err := dec.DecompressField(c); !errors.Is(err, ErrAutoLayout) {
		t.Fatalf("decode of auto-labelled artifact: got %v, want ErrAutoLayout", err)
	}
}
