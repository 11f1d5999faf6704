package zmesh

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// evolveSequence runs a moving blob on an AMR hierarchy and calls visit
// with the live field at each of `steps` snapshot times. The mesh mutates
// in place across regrids, so visitors must do all their work (compression,
// comparison) before returning.
func evolveSequence(t *testing.T, steps, regridEvery int, visit func(step int, u *Field)) {
	t.Helper()
	mesh, u, err := BuildAdaptive(BuildOptions{
		Dims: 2, BlockSize: 8, RootDims: [3]int{2, 2, 1},
		MaxDepth: 2, Threshold: 0.3,
	}, func(x, y, z float64) float64 {
		dx, dy := x-0.35, y-0.35
		return math.Exp(-(dx*dx + dy*dy) / (2 * 0.05 * 0.05))
	})
	if err != nil {
		t.Fatal(err)
	}
	u.Name = "u"
	solver, err := sim.NewAdvectionDiffusion(mesh, u, 1, 1, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < steps; s++ {
		visit(s, u)
		if err := solver.Run(solver.Time+0.02, regridEvery, 0.3, 2); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTemporalRoundTripNoRegrid(t *testing.T) {
	enc, err := NewTemporalEncoder(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dec := NewTemporalDecoder()
	bound := AbsBound(1e-4)
	keyframes := 0
	evolveSequence(t, 5, 0, func(si int, snap *Field) {
		c, err := enc.CompressSnapshot(snap, bound)
		if err != nil {
			t.Fatalf("snapshot %d: %v", si, err)
		}
		if c.Keyframe {
			keyframes++
		}
		got, err := dec.DecompressSnapshot(c)
		if err != nil {
			t.Fatalf("snapshot %d: %v", si, err)
		}
		// Compare via level-order streams: the decoded field lives on the
		// decoder's own mesh instance.
		a := FieldValues(snap)
		b := FieldValues(got)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-4 {
				t.Fatalf("snapshot %d: error %g exceeds bound (no accumulation allowed)",
					si, math.Abs(a[i]-b[i]))
			}
		}
	})
	if keyframes != 1 {
		t.Fatalf("%d keyframes for an unchanged topology, want 1", keyframes)
	}
}

func TestTemporalKeyframeOnRegrid(t *testing.T) {
	enc, err := NewTemporalEncoder(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	dec := NewTemporalDecoder()
	keyframes, frames := 0, 0
	evolveSequence(t, 6, 3, func(si int, snap *Field) {
		c, err := enc.CompressSnapshot(snap, AbsBound(1e-4))
		if err != nil {
			t.Fatalf("snapshot %d: %v", si, err)
		}
		frames++
		if c.Keyframe {
			keyframes++
			if len(c.Structure) == 0 {
				t.Fatal("keyframe without topology")
			}
		} else if c.Structure != nil {
			t.Fatal("delta frame carries topology")
		}
		got, err := dec.DecompressSnapshot(c)
		if err != nil {
			t.Fatalf("snapshot %d: %v", si, err)
		}
		a := FieldValues(snap)
		b := FieldValues(got)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-4 {
				t.Fatalf("snapshot %d: error %g", si, math.Abs(a[i]-b[i]))
			}
		}
	})
	if keyframes < 2 {
		t.Fatalf("%d keyframes despite regridding; expected topology changes", keyframes)
	}
	if keyframes == frames {
		t.Fatal("every frame is a keyframe; temporal path never exercised")
	}
}

func TestTemporalDeltasSmallerThanKeyframes(t *testing.T) {
	// Slowly-evolving data: delta frames must be cheaper than re-encoding
	// each snapshot spatially.
	enc, err := NewTemporalEncoder(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bound := AbsBound(1e-4)
	var temporalBytes, spatialBytes int
	evolveSequence(t, 5, 0, func(si int, snap *Field) {
		c, err := enc.CompressSnapshot(snap, bound)
		if err != nil {
			t.Fatal(err)
		}
		spatial, err := NewEncoder(snap.Mesh(), DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		s, err := spatial.CompressField(snap, bound)
		if err != nil {
			t.Fatal(err)
		}
		if si > 0 { // skip the shared keyframe
			temporalBytes += len(c.Payload)
			spatialBytes += len(s.Payload)
		}
	})
	if temporalBytes >= spatialBytes {
		t.Fatalf("temporal %d bytes not smaller than spatial %d bytes",
			temporalBytes, spatialBytes)
	}
}

func TestTemporalDecoderErrors(t *testing.T) {
	dec := NewTemporalDecoder()
	enc, err := NewTemporalEncoder(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var key, delta *TemporalCompressed
	evolveSequence(t, 2, 0, func(si int, snap *Field) {
		c, err := enc.CompressSnapshot(snap, AbsBound(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		if si == 0 {
			key = c
		} else {
			delta = c
		}
	})
	if delta.Keyframe {
		t.Fatal("second snapshot unexpectedly a keyframe")
	}
	if _, err := dec.DecompressSnapshot(delta); err == nil {
		t.Fatal("delta before keyframe accepted")
	}
	if _, err := dec.DecompressSnapshot(key); err != nil {
		t.Fatal(err)
	}
	// Corrupted keyframe topology.
	bad := *key
	bad.Structure = []byte{1, 2, 3}
	if _, err := dec.DecompressSnapshot(&bad); err == nil {
		t.Fatal("garbage topology accepted")
	}
}

// A temporal stream owns no pipeline: under every concrete layout and codec
// its keyframe IS the artifact Encoder.CompressField makes (so a plain Decoder
// reads it, zTAC frame and all), and a delta decodes within the bound the
// frame declares.
func TestTemporalFramesAreEncoderArtifacts(t *testing.T) {
	ck := checkpoint(t)
	dens, _ := ck.Field("dens")
	_, f3 := tacTestMesh3D(t)
	bound := RelBound(1e-4)
	for _, fld := range []*Field{dens, f3} {
		m := fld.Mesh()
		orig := FieldValues(fld)
		moved := make([]float64, len(orig))
		for i, v := range orig {
			moved[i] = 1.01*v + 1e-3*math.Sin(0.05*float64(i))
		}
		next, err := FieldFromValues(m, fld.Name, moved)
		if err != nil {
			t.Fatal(err)
		}
		for _, layout := range []Layout{LayoutLevel, LayoutSFC, LayoutZMesh, LayoutTAC} {
			for _, codec := range []string{"sz", "zfp", "gzip"} {
				t.Run(fmt.Sprintf("%dd/%v/%s", m.Dims(), layout, codec), func(t *testing.T) {
					opt := Options{Layout: layout, Curve: "hilbert", Codec: codec}
					te, err := NewTemporalEncoder(opt)
					if err != nil {
						t.Fatal(err)
					}
					key, err := te.CompressSnapshot(fld, bound)
					if err != nil {
						t.Fatal(err)
					}
					enc, err := NewEncoder(m, opt)
					if err != nil {
						t.Fatal(err)
					}
					want, err := enc.CompressField(fld, bound)
					if err != nil {
						t.Fatal(err)
					}
					if !key.Keyframe || !reflect.DeepEqual(&key.Compressed, want) {
						t.Fatalf("keyframe (%d B) is not CompressField's artifact (%d B)", len(key.Payload), len(want.Payload))
					}
					got, err := NewDecoder(m).DecompressField(&key.Compressed)
					if err != nil {
						t.Fatalf("plain Decoder on the keyframe: %v", err)
					}
					checkWithinBound(t, got, orig, key.Bound)

					delta, err := te.CompressSnapshot(next, bound)
					if err != nil {
						t.Fatal(err)
					}
					if delta.Keyframe || delta.Bound <= 0 {
						t.Fatalf("second snapshot: keyframe=%v bound=%g", delta.Keyframe, delta.Bound)
					}
					td := NewTemporalDecoder()
					if _, err := td.DecompressSnapshot(key); err != nil {
						t.Fatal(err)
					}
					got, err = td.DecompressSnapshot(delta)
					if err != nil {
						t.Fatal(err)
					}
					checkWithinBound(t, got, moved, delta.Bound)
				})
			}
		}
	}
}
