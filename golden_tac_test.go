package zmesh

// Golden fixtures for the TAC box layout and the auto rule, extending the
// golden discipline of golden_test.go to the zTAC frame format and the
// layout LayoutAuto resolves to. Regenerate together with the rest of the
// fixtures:
//
//	go test -run TestGolden -update .

import (
	"bytes"
	"testing"

	"repro/internal/compress/container"
	"repro/internal/core"
)

// TestGoldenTAC pins the zTAC frame format per codec on a genuinely 3-D
// mesh (partial boxes, carry-last padding, per-box sub-payload table). The
// fixture carries the mesh structure blob so decode starts from exactly
// what a reader of the committed artifact would have.
func TestGoldenTAC(t *testing.T) {
	m, f := tacTestMesh3D(t)
	for _, codec := range goldenCodecs {
		codec := codec
		t.Run(codec, func(t *testing.T) {
			name := "tac_" + codec + ".json"
			if *updateGolden {
				enc, err := NewEncoder(m, Options{Layout: core.TAC3D, Curve: "hilbert", Codec: codec})
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
				fx := fixtureFromCompressed(c, dec)
				fx.Structure = m.Structure()
				writeFixture(t, name, fx)
				return
			}
			var g goldenFixture
			readFixture(t, name, &g)
			checkVersion(t, name, g.ContainerVersion)
			if g.Layout != core.TAC3D.String() {
				t.Fatalf("%s: fixture layout %q, want tac", name, g.Layout)
			}
			c, err := g.compressed()
			if err != nil {
				t.Fatal(err)
			}
			d, err := NewDecoderFromStructure(g.Structure)
			if err != nil {
				t.Fatalf("%s: committed structure no longer parses: %v", name, err)
			}
			out, err := d.DecompressField(c)
			if err != nil {
				t.Fatalf("%s: committed TAC artifact no longer decodes: %v.\n"+
					"If the frame-format break is intentional, bump container.Version and regenerate with -update.", name, err)
			}
			compareBits(t, name, g.Values, FieldValues(out))
		})
	}
}

// TestGoldenAuto pins the auto rule end to end, per codec: the committed
// artifact must still decode bit-exactly, AND a fresh LayoutAuto encoder
// over the same field must reproduce the committed layout and payload —
// so a change to ResolveAuto fails CI the same way a frame-format change
// would.
func TestGoldenAuto(t *testing.T) {
	m, f, _ := goldenField(t)
	for _, codec := range goldenCodecs {
		codec := codec
		t.Run(codec, func(t *testing.T) {
			name := "auto_" + codec + ".json"
			encode := func() *Compressed {
				enc, err := NewEncoder(m, Options{Layout: core.AutoLayout, Curve: "hilbert", Codec: codec})
				if err != nil {
					t.Fatal(err)
				}
				c, err := enc.CompressField(f, goldenBound())
				if err != nil {
					t.Fatal(err)
				}
				return c
			}
			if *updateGolden {
				c := encode()
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
			if g.Layout == core.AutoLayout.String() {
				t.Fatalf("%s: fixture records the pseudo-layout instead of a concrete one", name)
			}
			if !container.IsContainer(g.Payload) {
				t.Fatalf("%s: committed payload is not a container envelope", name)
			}
			c, err := g.compressed()
			if err != nil {
				t.Fatal(err)
			}
			out, err := NewDecoder(m).DecompressField(c)
			if err != nil {
				t.Fatalf("%s: committed auto artifact no longer decodes: %v", name, err)
			}
			compareBits(t, name, g.Values, FieldValues(out))
			fresh := encode()
			if fresh.Layout.String() != g.Layout {
				t.Fatalf("%s: auto now resolves to %v, fixture pins %s.\n"+
					"The rule (ResolveAuto) changed; if intentional, regenerate with -update\n"+
					"and update the evidence table in DESIGN.md \"Auto rule\".", name, fresh.Layout, g.Layout)
			}
			if !bytes.Equal(fresh.Payload, g.Payload) {
				t.Fatalf("%s: fresh auto encode differs from committed payload (%d vs %d bytes)",
					name, len(fresh.Payload), len(g.Payload))
			}
		})
	}
}
