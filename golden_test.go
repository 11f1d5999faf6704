package zmesh

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/amr"
	"repro/internal/compress/container"
	"repro/internal/core"
)

// Golden-format fixtures: committed compressed artifacts (one per codec,
// all container-wrapped, plus a temporal keyframe+delta pair) together with
// the bit-exact reconstruction each must decode to. The test pins the
// on-disk format: any change to a codec's bitstream, the container
// envelope, or the reorder pipeline that alters decode output fails CI
// until the container version byte is bumped and the fixtures are
// regenerated with:
//
//	go test -run TestGolden -update .
var updateGolden = flag.Bool("update", false, "regenerate golden fixtures under testdata/golden")

const goldenDir = "testdata/golden"

// goldenCodecs is every registered codec; each gets its own fixture.
var goldenCodecs = []string{"sz", "zfp", "gzip"}

// goldenFixture is one committed artifact. []byte fields marshal as base64.
type goldenFixture struct {
	// ContainerVersion pins the envelope format version the fixture was
	// written with; a mismatch with the code's container.Version means the
	// format changed intentionally and the fixtures must be regenerated.
	ContainerVersion int    `json:"container_version"`
	FieldName        string `json:"field_name"`
	Layout           string `json:"layout"`
	Curve            string `json:"curve"`
	Codec            string `json:"codec"`
	NumValues        int    `json:"num_values"`
	Keyframe         bool   `json:"keyframe,omitempty"`
	Structure        []byte `json:"structure,omitempty"`
	Payload          []byte `json:"payload"`
	// Values is the expected reconstruction in level-order, float64
	// little-endian — compared bit for bit.
	Values []byte `json:"values"`
}

func packValues(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// goldenField builds the fixtures' deterministic mesh and snapshot pair.
func goldenField(t testing.TB) (*Mesh, *Field, *Field) {
	t.Helper()
	m, f := telemetryTestMesh(t)
	f2 := amr.SampleField(m, "dens", func(x, y, z float64) float64 {
		return math.Sin(5*x)*math.Cos(4*y) + 0.1*x*y + 0.05*math.Cos(3*x)
	})
	return m, f, f2
}

func goldenBound() Bound { return AbsBound(1e-3) }

func (g *goldenFixture) compressed() (*Compressed, error) {
	layout, err := core.ParseLayout(g.Layout)
	if err != nil {
		return nil, err
	}
	return &Compressed{
		FieldName: g.FieldName,
		Layout:    layout,
		Curve:     g.Curve,
		Codec:     g.Codec,
		NumValues: g.NumValues,
		Payload:   g.Payload,
	}, nil
}

func fixtureFromCompressed(c *Compressed, f *Field) *goldenFixture {
	return &goldenFixture{
		ContainerVersion: container.Version,
		FieldName:        c.FieldName,
		Layout:           c.Layout.String(),
		Curve:            c.Curve,
		Codec:            c.Codec,
		NumValues:        c.NumValues,
		Payload:          c.Payload,
		Values:           packValues(FieldValues(f)),
	}
}

func writeFixture(t *testing.T, name string, v any) {
	t.Helper()
	buf, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(goldenDir, name)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}

func readFixture(t *testing.T, name string, v any) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("%v (regenerate with `go test -run TestGolden -update .`)", err)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		t.Fatalf("parsing %s: %v", name, err)
	}
}

// checkVersion enforces the version-byte discipline: fixtures written under
// another envelope version are stale by definition.
func checkVersion(t *testing.T, name string, fixtureVersion int) {
	t.Helper()
	if fixtureVersion != container.Version {
		t.Fatalf("%s: fixture written with container version %d, code is at version %d.\n"+
			"The envelope format changed: regenerate the golden fixtures with `go test -run TestGolden -update .`\n"+
			"and document the format break in DESIGN.md.", name, fixtureVersion, container.Version)
	}
}

func compareBits(t *testing.T, name string, want []byte, got []float64) {
	t.Helper()
	if len(want) != 8*len(got) {
		t.Fatalf("%s: decoded %d values, fixture has %d", name, len(got), len(want)/8)
	}
	for i, v := range got {
		w := binary.LittleEndian.Uint64(want[8*i:])
		if math.Float64bits(v) != w {
			t.Fatalf("%s: value %d decodes to %x (%g), fixture pins %x (%g).\n"+
				"The serialized format or decode pipeline changed. If this break is intentional,\n"+
				"bump container.Version and regenerate with `go test -run TestGolden -update .`;\n"+
				"otherwise restore decode compatibility.",
				name, i, math.Float64bits(v), v, w, math.Float64frombits(w))
		}
	}
}

// TestGoldenCodecs pins the per-codec artifact format: each committed
// payload (container-enveloped) must decode to the committed bits.
func TestGoldenCodecs(t *testing.T) {
	m, f, _ := goldenField(t)
	for _, codec := range goldenCodecs {
		codec := codec
		t.Run(codec, func(t *testing.T) {
			name := codec + ".json"
			if *updateGolden {
				enc, err := NewEncoder(m, Options{Layout: core.ZMesh, Curve: "hilbert", Codec: codec})
				if err != nil {
					t.Fatal(err)
				}
				c, err := enc.CompressField(f, goldenBound())
				if err != nil {
					t.Fatal(err)
				}
				dec, err := NewDecoder(m).DecompressField(c)
				if err != nil {
					t.Fatal(err)
				}
				writeFixture(t, name, fixtureFromCompressed(c, dec))
				return
			}
			var g goldenFixture
			readFixture(t, name, &g)
			checkVersion(t, name, g.ContainerVersion)
			if !container.IsContainer(g.Payload) {
				t.Fatalf("%s: committed payload is not a container envelope", name)
			}
			c, err := g.compressed()
			if err != nil {
				t.Fatal(err)
			}
			out, err := NewDecoder(m).DecompressField(c)
			if err != nil {
				t.Fatalf("%s: committed artifact no longer decodes: %v.\n"+
					"If the format break is intentional, bump container.Version and regenerate with -update.", name, err)
			}
			compareBits(t, name, g.Values, FieldValues(out))
		})
	}
}

// TestGoldenTemporal pins the temporal stream format with a keyframe +
// delta-frame pair per fixture — one under a 1-D order, one under tac, whose
// frames carry zTAC box tables; the delta must replay bit-exactly on top of
// the key.
func TestGoldenTemporal(t *testing.T) {
	for name, layout := range map[string]Layout{"temporal_sz.json": LayoutZMesh, "temporal_tac_sz.json": LayoutTAC} {
		goldenTemporal(t, name, layout)
	}
}

func goldenTemporal(t *testing.T, name string, layout Layout) {
	_, f, f2 := goldenField(t)
	if *updateGolden {
		te, err := NewTemporalEncoder(Options{Layout: layout, Curve: "hilbert", Codec: "sz"})
		if err != nil {
			t.Fatal(err)
		}
		key, err := te.CompressSnapshot(f, goldenBound())
		if err != nil {
			t.Fatal(err)
		}
		delta, err := te.CompressSnapshot(f2, goldenBound())
		if err != nil {
			t.Fatal(err)
		}
		if key.Keyframe != true || delta.Keyframe != false {
			t.Fatalf("expected key+delta pair, got keyframe=%v,%v", key.Keyframe, delta.Keyframe)
		}
		td := NewTemporalDecoder()
		frames := make([]goldenFixture, 0, 2)
		for _, c := range []*TemporalCompressed{key, delta} {
			out, err := td.DecompressSnapshot(c)
			if err != nil {
				t.Fatal(err)
			}
			fx := fixtureFromCompressed(&c.Compressed, out)
			fx.Keyframe = c.Keyframe
			fx.Structure = c.Structure
			frames = append(frames, *fx)
		}
		writeFixture(t, name, frames)
		return
	}
	var frames []goldenFixture
	readFixture(t, name, &frames)
	if len(frames) != 2 || !frames[0].Keyframe || frames[1].Keyframe {
		t.Fatalf("%s: expected [keyframe, delta], got %d frames", name, len(frames))
	}
	td := NewTemporalDecoder()
	for i, g := range frames {
		fname := fmt.Sprintf("%s[%d]", name, i)
		checkVersion(t, fname, g.ContainerVersion)
		c, err := g.compressed()
		if err != nil {
			t.Fatal(err)
		}
		tc := &TemporalCompressed{Compressed: *c, Keyframe: g.Keyframe, Structure: g.Structure}
		out, err := td.DecompressSnapshot(tc)
		if err != nil {
			t.Fatalf("%s: committed frame no longer decodes: %v.\n"+
				"If the format break is intentional, bump container.Version and regenerate with -update.", fname, err)
		}
		compareBits(t, fname, g.Values, FieldValues(out))
	}
}
