package zmesh

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// sharedStreams encodes two quantities, dens and pres, on one topology: a
// keyframe plus three deltas each.
func sharedStreams(t *testing.T) (structure []byte, streams [2][]*TemporalCompressed) {
	t.Helper()
	m, f := telemetryTestMesh(t)
	for q, name := range []string{"dens", "pres"} {
		enc, err := NewTemporalEncoder(DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		f.Name = name
		for step := 0; step < 4; step++ {
			f.FillFunc(func(x, y, z float64) float64 {
				return math.Sin(5*x+0.1*float64(step))*math.Cos(4*y) + float64(q)*x*y
			})
			c, err := enc.CompressSnapshot(f, RelBound(1e-4))
			if err != nil {
				t.Fatal(err)
			}
			if c.Keyframe != (step == 0) {
				t.Fatalf("%s snapshot %d: keyframe=%v", name, step, c.Keyframe)
			}
			streams[q] = append(streams[q], c)
		}
	}
	return m.Structure(), streams
}

// replay decodes a stream and returns every snapshot's level-order values.
func replay(td *TemporalDecoder, frames []*TemporalCompressed) ([][]float64, error) {
	var out [][]float64
	for _, c := range frames {
		f, err := td.DecompressSnapshot(c)
		if err != nil {
			return nil, err
		}
		out = append(out, FieldValues(f))
	}
	return out, nil
}

// TestTemporalDecodersShareRecipes: temporal decoders built on one shared
// keyframe source restore every stream on a topology from one recipe, give
// the reconstructions of decoders that build their own, and never write to the
// shared Decoder, so concurrent streams on it are race-free.
func TestTemporalDecodersShareRecipes(t *testing.T) {
	structure, streams := sharedStreams(t)
	reg := NewRegistry()
	shared, err := NewDecoderFromStructure(structure)
	if err != nil {
		t.Fatal(err)
	}
	shared.Instrument(reg)
	source := func(s []byte) (*Decoder, error) {
		if !bytes.Equal(s, structure) {
			return nil, errors.New("unknown structure")
		}
		return shared, nil
	}

	var want [2][][]float64
	for q, frames := range streams {
		if want[q], err = replay(NewTemporalDecoder(), frames); err != nil {
			t.Fatal(err)
		}
	}
	check := func(td *TemporalDecoder, q int) error {
		got, err := replay(td, streams[q])
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want[q]) {
			return errors.New("reconstruction differs from a NewTemporalDecoder's")
		}
		if td.Mesh() != shared.Mesh() {
			return errors.New("stream mesh is not the shared decoder's")
		}
		return nil
	}
	for q := range streams {
		if err := check(NewTemporalDecoderFrom(source), q); err != nil {
			t.Fatalf("stream %d: %v", q, err)
		}
	}
	if got := reg.Snapshot().Counters["recipe.builds"]; got != 1 {
		t.Fatalf("recipe.builds = %d after two streams on one structure, want 1", got)
	}

	const workers = 8
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				// Instrumented with the shared decoder's own registry, so a
				// stream that wrote its registry onto the shared decoder
				// would write the value already there: only -race sees it.
				if err := check(NewTemporalDecoderFrom(source).Instrument(reg), (w+i)%2); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["recipe.builds"]; got != 1 {
		t.Fatalf("recipe.builds = %d after concurrent replays, want 1", got)
	}

	// A keyframe the source rejects fails the snapshot with its error.
	td := NewTemporalDecoderFrom(func([]byte) (*Decoder, error) { return nil, errors.New("rejected") })
	if _, err := td.DecompressSnapshot(streams[0][0]); err == nil || err.Error() != "rejected" {
		t.Fatalf("rejected keyframe: %v", err)
	}
	if td.Mesh() != nil {
		t.Fatal("a rejected keyframe committed a mesh")
	}
}

// TestForcedKeyframeReusesRecipe: a forced keyframe on the topology the
// encoder already holds is the keyframe a fresh encoder makes, and costs no
// recipe build.
func TestForcedKeyframeReusesRecipe(t *testing.T) {
	_, f := telemetryTestMesh(t)
	reg := NewRegistry()
	te, err := NewTemporalEncoder(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	te.Instrument(reg)
	bound := RelBound(1e-4)
	first, err := te.CompressSnapshot(f, bound)
	if err != nil {
		t.Fatal(err)
	}
	f.FillFunc(func(x, y, z float64) float64 { return math.Cos(3*x) + y })
	te.ForceKeyframe()
	forced, err := te.CompressSnapshot(f, bound)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["recipe.builds"]; got != 1 {
		t.Fatalf("recipe.builds = %d after compress, ForceKeyframe, compress; want 1", got)
	}
	if !forced.Keyframe || !bytes.Equal(forced.Structure, first.Structure) {
		t.Fatalf("forced snapshot: keyframe=%v, structure equal=%v", forced.Keyframe, bytes.Equal(forced.Structure, first.Structure))
	}
	fresh, err := NewTemporalEncoder(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.CompressSnapshot(f, bound)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(forced, want) {
		t.Fatal("forced keyframe differs from a fresh encoder's keyframe")
	}
	// The stream goes on with deltas against the forced keyframe.
	next, err := te.CompressSnapshot(f, bound)
	if err != nil {
		t.Fatal(err)
	}
	if next.Keyframe {
		t.Fatal("snapshot after the forced keyframe is a keyframe")
	}
}
