package zmesh

import (
	"fmt"
	"math"
	"sync"
	"testing"
)

// regridStream encodes one quantity over eight snapshots: a keyframe and
// three deltas on a coarse mesh, then a regrid keyframe and three deltas on a
// finer one. It returns the frames and the two meshes' structures.
func regridStream(t *testing.T, opt Options, name string) (frames []*TemporalCompressed, structures [2][]byte) {
	t.Helper()
	coarse, _ := telemetryTestMesh(t)
	fine, _ := telemetryTestMesh(t)
	if err := fine.Refine(fine.Roots()[1]); err != nil {
		t.Fatal(err)
	}
	enc, err := NewTemporalEncoder(opt)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		m := coarse
		if step >= 4 {
			m = fine
		}
		phase := 0.1 * float64(step)
		f := SampleField(m, name, func(x, y, z float64) float64 {
			return math.Sin(5*x+phase)*math.Cos(4*y) + 0.1*x*y
		})
		c, err := enc.CompressSnapshot(f, RelBound(1e-4))
		if err != nil {
			t.Fatal(err)
		}
		if c.Keyframe != (step%4 == 0) {
			t.Fatalf("%s snapshot %d: keyframe=%v", name, step, c.Keyframe)
		}
		frames = append(frames, c)
	}
	return frames, [2][]byte{coarse.Structure(), fine.Structure()}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestAdvanceMatchesDecompressSnapshot: Advance plus AppendValues is
// DecompressSnapshot without the Field, bit for bit, after every frame of a
// stream that regrids, under the chained-tree and the box layout. A delta of
// another stream, or a delta whose decoded length is not the keyframe
// recipe's, fails Advance and leaves the layout-order reconstruction exactly
// where it was. Four goroutines replay the stream at once through one shared
// source of Decoders, which -race checks they only read.
func TestAdvanceMatchesDecompressSnapshot(t *testing.T) {
	for _, layout := range []Layout{LayoutZMesh, LayoutTAC} {
		t.Run(layout.String(), func(t *testing.T) {
			opt := DefaultOptions()
			opt.Layout = layout
			frames, structures := regridStream(t, opt, "dens")
			foreign, _ := regridStream(t, opt, "pres")
			var want [][]float64
			ref := NewTemporalDecoder()
			for i, c := range frames {
				f, err := ref.DecompressSnapshot(c)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				want = append(want, FieldValues(f))
			}
			shared := map[string]*Decoder{}
			for _, s := range structures {
				dec, err := NewDecoderFromStructure(s)
				if err != nil {
					t.Fatal(err)
				}
				shared[string(s)] = dec
			}
			source := func(s []byte) (*Decoder, error) {
				if dec := shared[string(s)]; dec != nil {
					return dec, nil
				}
				return nil, fmt.Errorf("unknown structure")
			}

			var wg sync.WaitGroup
			errs := make([]error, 4)
			for g := range errs {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					errs[g] = advanceAlong(NewTemporalDecoderFrom(source), frames, foreign, want)
				}(g)
			}
			wg.Wait()
			for g, err := range errs {
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
				}
			}
		})
	}
}

// advanceAlong replays frames through td with Advance, checking AppendValues
// against want after every frame. Before each delta it offers td two frames
// Advance must refuse: the foreign stream's delta at the same index (same
// layout and length, another field), and a delta of the other topology (same
// stream identity, another length); after them the state must be unchanged.
func advanceAlong(td *TemporalDecoder, frames, foreign []*TemporalCompressed, want [][]float64) error {
	if _, err := td.AppendValues(nil); err == nil {
		return fmt.Errorf("AppendValues before any keyframe succeeded")
	}
	var buf []float64
	for i, c := range frames {
		if !c.Keyframe {
			wrongLength := frames[(i+4)%len(frames)]
			for _, bad := range []*TemporalCompressed{foreign[i], wrongLength} {
				if err := td.Advance(bad); err == nil {
					return fmt.Errorf("frame %d: Advance accepted a delta of %q with %d values", i, bad.FieldName, bad.NumValues)
				}
			}
			got, err := td.AppendValues(buf[:0])
			if err != nil {
				return fmt.Errorf("frame %d: AppendValues after rejected frames: %w", i, err)
			}
			if !sameBits(got, want[i-1]) {
				return fmt.Errorf("frame %d: rejected frames changed the reconstruction", i)
			}
		}
		if err := td.Advance(c); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		got, err := td.AppendValues(buf[:0])
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		if !sameBits(got, want[i]) {
			return fmt.Errorf("frame %d: Advance + AppendValues differs from DecompressSnapshot", i)
		}
		buf = got
	}
	return nil
}
