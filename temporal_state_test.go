package zmesh

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/amr"
	"repro/internal/compress"
	"repro/internal/compress/container"
)

// flakyCodec wraps sz and fails Compress on demand, simulating a transient
// codec error (resource exhaustion, cancelled cgo call, ...). The temporal
// encoder must survive such failures without wedging its stream state.
type flakyCodec struct {
	inner compress.Compressor
	fail  *atomic.Bool
}

var flakyFail atomic.Bool

func init() {
	compress.Register("flaky-test", func() compress.Compressor {
		inner, err := compress.Get("sz")
		if err != nil {
			panic(err)
		}
		return &flakyCodec{inner: inner, fail: &flakyFail}
	})
}

func (f *flakyCodec) Name() string { return "flaky-test" }

func (f *flakyCodec) Compress(data []float64, dims []int, b compress.Bound) ([]byte, error) {
	if f.fail.Load() {
		return nil, errors.New("injected codec failure")
	}
	return f.inner.Compress(data, dims, b)
}

func (f *flakyCodec) Decompress(buf []byte) ([]float64, error) {
	return f.inner.Decompress(buf)
}

// Regression: CompressSnapshot used to commit recipe/topology/reconstruction
// BEFORE compressing. A transient codec failure then left the encoder
// believing the snapshot had been encoded: every later frame became a delta
// against a reconstruction that was never emitted, corrupting the stream
// forever. State must commit only after the frame fully exists.
func TestTemporalEncoderRecoversFromCodecFailure(t *testing.T) {
	opt := DefaultOptions()
	opt.Codec = "flaky-test"
	enc, err := NewTemporalEncoder(opt)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewTemporalDecoder()
	bound := AbsBound(1e-4)
	flakyFail.Store(false)
	defer flakyFail.Store(false)

	evolveSequence(t, 4, 0, func(si int, snap *Field) {
		// Fail the very first keyframe and a mid-stream delta.
		if si == 0 || si == 2 {
			flakyFail.Store(true)
			if _, err := enc.CompressSnapshot(snap, bound); err == nil {
				t.Fatalf("snapshot %d: injected failure not surfaced", si)
			}
			flakyFail.Store(false)
		}
		c, err := enc.CompressSnapshot(snap, bound)
		if err != nil {
			t.Fatalf("snapshot %d: retry after injected failure: %v", si, err)
		}
		if si == 0 && !c.Keyframe {
			t.Fatal("first committed snapshot must be a keyframe")
		}
		if si > 0 && c.Keyframe {
			t.Fatalf("snapshot %d: topology unchanged but got a keyframe", si)
		}
		got, err := dec.DecompressSnapshot(c)
		if err != nil {
			t.Fatalf("snapshot %d: %v", si, err)
		}
		a := FieldValues(snap)
		b := FieldValues(got)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-4 {
				t.Fatalf("snapshot %d: error %g exceeds bound after recovery", si, math.Abs(a[i]-b[i]))
			}
		}
	})
}

// captureStream records every frame of a temporal stream plus the expected
// values at each snapshot.
func captureStream(t *testing.T, opt Options, steps int) (frames []*TemporalCompressed, want [][]float64) {
	t.Helper()
	enc, err := NewTemporalEncoder(opt)
	if err != nil {
		t.Fatal(err)
	}
	evolveSequence(t, steps, 0, func(si int, snap *Field) {
		c, err := enc.CompressSnapshot(snap, AbsBound(1e-4))
		if err != nil {
			t.Fatalf("snapshot %d: %v", si, err)
		}
		frames = append(frames, c)
		want = append(want, FieldValues(snap))
	})
	return frames, want
}

func checkWithinBound(t *testing.T, f *Field, want []float64, tol float64) {
	t.Helper()
	got := FieldValues(f)
	if len(got) != len(want) {
		t.Fatalf("decoded %d values, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > tol {
			t.Fatalf("value %d: error %g exceeds %g", i, math.Abs(got[i]-want[i]), tol)
		}
	}
}

// Regression: a delta frame from a *different* stream with the same value
// count used to be accumulated silently, producing garbage within no error
// bound. The decoder must pin the stream identity (layout, curve, field) at
// the keyframe and reject mismatching deltas — without disturbing its state.
func TestTemporalDecoderRejectsCrossStreamDelta(t *testing.T) {
	optA := DefaultOptions() // zmesh/hilbert
	optB := DefaultOptions()
	optB.Curve = "morton"

	framesA, wantA := captureStream(t, optA, 2)
	framesB, _ := captureStream(t, optB, 2)
	if framesA[1].Keyframe || framesB[1].Keyframe {
		t.Fatal("second snapshot unexpectedly a keyframe")
	}

	dec := NewTemporalDecoder()
	if _, err := dec.DecompressSnapshot(framesA[0]); err != nil {
		t.Fatal(err)
	}
	// Same field, same length, different curve: must be rejected.
	if _, err := dec.DecompressSnapshot(framesB[1]); err == nil {
		t.Fatal("delta from a morton stream accepted by a hilbert stream")
	} else if !strings.Contains(err.Error(), "morton") {
		t.Fatalf("mismatch error does not name the offending curve: %v", err)
	}
	// A renamed field is a different stream even with identical geometry.
	renamed := *framesA[1]
	renamed.FieldName = "other"
	if _, err := dec.DecompressSnapshot(&renamed); err == nil {
		t.Fatal("delta for a different field accepted")
	}
	// The rejections must not have consumed the delta slot: the genuine
	// frame still decodes to the right values.
	f, err := dec.DecompressSnapshot(framesA[1])
	if err != nil {
		t.Fatalf("stream state disturbed by rejected frames: %v", err)
	}
	checkWithinBound(t, f, wantA[1], 1e-4)
}

// Regression: a keyframe that fails mid-decode (here: topology from a
// different mesh, so the payload length no longer matches the recipe) must
// not reset the decoder. The stream keeps decoding from its previous state.
func TestTemporalDecoderKeyframeFailureKeepsState(t *testing.T) {
	frames, want := captureStream(t, DefaultOptions(), 2)

	other, err := amr.NewMesh(2, 4, [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}

	dec := NewTemporalDecoder()
	if _, err := dec.DecompressSnapshot(frames[0]); err != nil {
		t.Fatal(err)
	}
	poisoned := *frames[0]
	poisoned.Structure = other.Structure()
	if _, err := dec.DecompressSnapshot(&poisoned); err == nil {
		t.Fatal("keyframe with mismatched topology accepted")
	}
	f, err := dec.DecompressSnapshot(frames[1])
	if err != nil {
		t.Fatalf("failed keyframe corrupted decoder state: %v", err)
	}
	checkWithinBound(t, f, want[1], 1e-4)
}

// DecompressSnapshot must apply the same NumValues cross-check and the same
// no-envelope refusal as Decoder.DecompressField, for keyframes and deltas
// alike, and neither rejection may disturb the stream state.
func TestTemporalDecoderRejectsWrongValueCount(t *testing.T) {
	frames, want := captureStream(t, DefaultOptions(), 2)

	for idx, name := range []string{"keyframe", "delta"} {
		frame := frames[idx]
		dec := NewTemporalDecoder()
		if !frame.Keyframe {
			if _, err := dec.DecompressSnapshot(frames[0]); err != nil {
				t.Fatal(err)
			}
		}
		lying := *frame
		lying.NumValues = frame.NumValues + 7
		if _, err := dec.DecompressSnapshot(&lying); err == nil {
			t.Fatalf("%s: wrong NumValues accepted", name)
		}
		bare := *frame
		bare.Payload = stripEnvelope(t, frame.Payload)
		if _, err := dec.DecompressSnapshot(&bare); !errors.Is(err, container.ErrCorrupt) || !strings.Contains(err.Error(), "missing magic") {
			t.Fatalf("%s: bare payload: %v, want container.ErrCorrupt (missing magic)", name, err)
		}
		f, err := dec.DecompressSnapshot(frame)
		if err != nil {
			t.Fatalf("%s: rejected frames disturbed the stream: %v", name, err)
		}
		checkWithinBound(t, f, want[idx], 1e-4)
	}
}
