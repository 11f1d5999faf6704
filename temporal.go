package zmesh

import (
	"bytes"
	"fmt"
	"slices"
	"time"

	"repro/internal/amr"
	"repro/internal/compress"
	"repro/internal/core"
)

// Temporal compression exploits the coherence between successive
// checkpoints of a running simulation: while the AMR topology is unchanged,
// each quantity is compressed as the delta between its current values and
// the previous snapshot's *reconstruction* (so encoder and decoder stay in
// lockstep and errors never accumulate beyond the per-snapshot bound).
// When a regrid changes the topology the encoder falls back to a spatial
// keyframe, exactly like video codecs at scene cuts.
//
// Every frame is the artifact an Encoder makes of a layout-ordered stream (the
// snapshot, or snapshot minus previous reconstruction), so whatever a layout
// means for a field — zTAC box frames included — it means for a frame.
//
// State-machine contract (see DESIGN.md "Temporal stream state machine"):
// both the encoder and the decoder treat their stream state (pipeline,
// topology, previous reconstruction) as transactional. All validation and
// fallible work happens on locals; state commits only after the snapshot is
// fully encoded or decoded. A failed call therefore leaves the stream
// exactly where it was — the next call retries cleanly instead of wedging
// or silently corrupting the reconstruction.

// TemporalCompressed is one snapshot of one quantity in a temporal stream.
type TemporalCompressed struct {
	Compressed
	// Keyframe marks a spatially-coded snapshot (topology changed or first
	// in the stream); delta frames require every prior frame since the
	// last keyframe.
	Keyframe bool
	// Structure is the mesh topology for keyframes (nil on delta frames,
	// where topology is unchanged by construction).
	Structure []byte
	// Bound is the absolute point-wise error bound the frame was encoded
	// under (the caller's Bound resolved against this snapshot's stream).
	// Informational: checkpoint manifests record it per frame so progressive
	// readers can report accuracy. Zero on artifacts that predate the field.
	Bound float64
}

// TemporalEncoder compresses a time series of fields. One encoder handles
// one logical quantity stream (e.g. "dens" over time).
type TemporalEncoder struct {
	opt           Options
	prevStructure []byte
	forceKey      bool      // the next snapshot is a keyframe (ForceKeyframe)
	enc           *Encoder  // makes each frame of the current topology
	dec           *Decoder  // what the receiver will run; enc's recipe cache
	prevRecon     []float64 // previous reconstruction, layout order
	// Scratch buffers reused across snapshots so steady-state delta
	// encoding allocates no full-stream slices.
	scratch Scratch
	delta   []float64

	stats *temporalStats // nil unless Instrument attached a registry
	reg   *Registry      // registry for observed keyframe recipe builds
}

// NewTemporalEncoder creates an encoder for one quantity stream.
func NewTemporalEncoder(opt Options) (*TemporalEncoder, error) {
	opt.fillDefaults()
	// A temporal stream's delta frames only make sense against one stable
	// order; a per-snapshot auto pick could silently flip the layout between
	// keyframes, so the pseudo-layout is rejected up front.
	if opt.Layout == core.AutoLayout {
		return nil, fmt.Errorf("zmesh: temporal streams need a concrete layout: %w", core.ErrAutoLayout)
	}
	if _, err := compress.Get(opt.Codec); err != nil {
		return nil, err
	}
	return &TemporalEncoder{opt: opt}, nil
}

// ForceKeyframe makes the next CompressSnapshot emit a keyframe even if the
// topology is unchanged. This is the client-side recovery hook for remote
// streams: when the receiving end loses its stream state (an evicted or
// restarted zmeshd session), resending the current snapshot as a keyframe
// re-establishes lockstep without replaying history. The previous
// reconstruction is left in place and is simply replaced by the keyframe's
// own reconstruction on the next successful encode; a keyframe on the
// topology the encoder already holds reuses its recipe instead of
// rebuilding it.
func (te *TemporalEncoder) ForceKeyframe() { te.forceKey = true }

// CompressSnapshot encodes the next snapshot of the stream. The field's
// mesh may differ from the previous snapshot's (regridding); the encoder
// detects topology changes via the serialized structure.
//
// Encoder state (pipeline, topology, reconstruction) commits only after the
// snapshot is fully encoded: a transient codec or bound error leaves the
// stream state untouched, and the next call recovers — with a keyframe if
// nothing has been committed for this topology yet, with a delta against
// the last successfully encoded snapshot otherwise.
func (te *TemporalEncoder) CompressSnapshot(f *Field, bound Bound) (tc *TemporalCompressed, err error) {
	defer te.stats.abortOn(&err)
	m := f.Mesh()
	structure := m.Structure()
	newTopology := te.prevStructure == nil || !bytes.Equal(structure, te.prevStructure)
	keyframe := newTopology || te.forceKey
	enc, dec := te.enc, te.dec
	if newTopology {
		dec = NewDecoder(m)
		dec.reg = te.reg
		if enc, _, err = dec.Encoder(te.opt); err != nil {
			return nil, err
		}
	}
	sc := &te.scratch
	sc.flat = amr.AppendLevelOrder(sc.flat, f)
	stream, err := enc.recipe.ApplyTo(sc.ordered, sc.flat)
	if err != nil {
		return nil, err
	}
	sc.ordered = stream
	// Resolve the bound against the field itself so delta frames keep the
	// caller's point-wise semantics.
	abs := compress.AbsBound(bound.Absolute(stream))
	coded := stream
	if !keyframe {
		// Delta frame against the previous reconstruction.
		if len(te.prevRecon) != len(stream) {
			return nil, fmt.Errorf("zmesh: temporal state out of sync (%d vs %d values)",
				len(te.prevRecon), len(stream))
		}
		if cap(te.delta) < len(stream) {
			te.delta = make([]float64, len(stream))
		}
		coded = te.delta[:len(stream)]
		for i := range coded {
			coded[i] = stream[i] - te.prevRecon[i]
		}
	}
	// The frame, and what its receiver will reconstruct from it.
	t0 := stageStart(te.stats != nil)
	c, err := enc.encodeOrdered(enc.codec, f.Name, coded, abs, &sc.tac, time.Time{})
	if err != nil {
		return nil, err
	}
	_, recon, _, err := dec.decodeOrdered(c, nil)
	if err != nil {
		return nil, err
	}
	if s := te.stats; s != nil {
		s.codec.Since(t0)
	}
	// Commit: the snapshot is fully encoded.
	tc = &TemporalCompressed{Compressed: *c, Keyframe: keyframe, Bound: abs.Value}
	if keyframe {
		te.enc, te.dec = enc, dec
		te.prevStructure = structure
		te.forceKey = false
		te.prevRecon = recon
		tc.Structure = structure
	} else {
		for i := range te.prevRecon {
			te.prevRecon[i] += recon[i]
		}
	}
	te.stats.commit(keyframe, len(stream)*8, len(c.Payload))
	return tc, nil
}

// TemporalDecoder reconstructs a quantity stream snapshot by snapshot. Its
// state is the reconstruction of the last committed frame in layout order,
// the order frames are coded in: Advance moves it one frame forward without
// restoring anything, and AppendValues restores it to level order when a
// caller wants the values.
type TemporalDecoder struct {
	// source hands out the Decoder for a keyframe's structure bytes.
	source func(structure []byte) (*Decoder, error)
	dec    *Decoder     // mesh and recipe cache of the last keyframe
	recipe *core.Recipe // the last keyframe's restore recipe
	recon  []float64    // reconstruction of the last committed frame, layout order
	// Stream identity, pinned by the last keyframe. Delta frames must match
	// it exactly; a frame from another stream that happens to have the same
	// length must be rejected, not silently accumulated.
	layout    Layout
	curve     string
	fieldName string

	flat  []float64      // DecompressSnapshot's level-order scratch
	stats *temporalStats // nil unless Instrument attached a registry
	reg   *Registry      // registry for the recipe builds of ownDecoder's Decoders
}

// NewTemporalDecoder creates a decoder for one quantity stream that builds
// a fresh Decoder, and so a fresh recipe, for every keyframe.
func NewTemporalDecoder() *TemporalDecoder { return NewTemporalDecoderFrom(nil) }

// NewTemporalDecoderFrom creates a decoder for one quantity stream that takes
// each keyframe's Decoder from source, keyed by the keyframe's structure
// bytes, so streams on one topology can share one recipe cache (for example
// a cache of Decoders by structure hash). The stream only reads a Decoder it
// did not build: source's Decoders must be safe for concurrent use, which
// every Decoder is, and a keyframe whose topology source rejects fails the
// snapshot with source's error. A nil source is NewTemporalDecoder's: a fresh
// Decoder per keyframe, recording its recipe builds into the registry given
// to Instrument.
func NewTemporalDecoderFrom(source func(structure []byte) (*Decoder, error)) *TemporalDecoder {
	td := &TemporalDecoder{source: source}
	if source == nil {
		td.source = td.ownDecoder
	}
	return td
}

// ownDecoder is the default keyframe source: a Decoder owned by this stream.
func (td *TemporalDecoder) ownDecoder(structure []byte) (*Decoder, error) {
	dec, err := NewDecoderFromStructure(structure)
	if err != nil {
		return nil, err
	}
	dec.reg = td.reg
	return dec, nil
}

// Advance decodes the next frame and commits it to the stream's layout-order
// reconstruction: a keyframe replaces it (and carries the topology), a delta
// adds into it in place. Delta frames require the preceding frames to have
// been decoded in order, and must match the stream identity (layout, curve,
// field) established by the last keyframe. Nothing is restored and no Field
// is built; AppendValues does that once, for the frame a caller wants.
//
// Every check runs before the reconstruction is touched — the stream
// identity, the envelope and codec, and the decoded length against the
// keyframe's recipe — so a corrupt frame, even one that passes CRC and codec
// framing, leaves the stream exactly where it was and the next good frame
// decodes as if the bad one had never arrived. A keyframe's decoded values
// become the reconstruction without a copy.
func (td *TemporalDecoder) Advance(c *TemporalCompressed) (err error) {
	defer td.stats.abortOn(&err)
	dec := td.dec
	switch {
	case c.Keyframe:
		if len(c.Structure) == 0 {
			return fmt.Errorf("zmesh: keyframe without topology")
		}
		if dec, err = td.source(c.Structure); err != nil {
			return err
		}
	// Delta frame: validate against the stream identity first.
	case dec == nil:
		return fmt.Errorf("zmesh: delta frame before any keyframe")
	case c.Layout != td.layout || c.Curve != td.curve:
		return fmt.Errorf("zmesh: delta frame layout %v/%s does not match stream keyframe %v/%s",
			c.Layout, c.Curve, td.layout, td.curve)
	case c.FieldName != td.fieldName:
		return fmt.Errorf("zmesh: delta frame for field %q on a stream of %q",
			c.FieldName, td.fieldName)
	}
	var env *containerStats
	if td.stats != nil {
		env = &td.stats.envelope
	}
	t0 := stageStart(env != nil)
	recipe, vals, _, err := dec.decodeOrdered(&c.Compressed, env)
	if err != nil {
		return err
	}
	if env != nil {
		td.stats.codec.Since(t0)
	}
	if len(vals) != recipe.Len() {
		return fmt.Errorf("zmesh: frame decoded to %d values, the %v/%s recipe takes %d",
			len(vals), c.Layout, c.Curve, recipe.Len())
	}
	// Commit.
	if c.Keyframe {
		td.dec, td.recipe, td.recon = dec, recipe, vals
		td.layout, td.curve, td.fieldName = c.Layout, c.Curve, c.FieldName
	} else {
		recon := td.recon[:len(vals)]
		for i, v := range vals {
			recon[i] += v
		}
	}
	td.stats.commit(c.Keyframe, len(vals)*8, len(c.Payload))
	return nil
}

// AppendValues appends the reconstruction of the last committed frame to dst
// in level order (FieldValues' order) and returns the extended slice. It is
// the stream's one restore: replaying frames with Advance and calling
// AppendValues once costs one permutation pass, not one per frame.
func (td *TemporalDecoder) AppendValues(dst []float64) ([]float64, error) {
	if td.recipe == nil {
		return dst, fmt.Errorf("zmesh: no snapshot decoded yet")
	}
	n, m := len(dst), td.recipe.Len()
	dst = slices.Grow(dst, m)
	if _, err := td.recipe.RestoreTo(dst[n:n+m], td.recon); err != nil {
		return dst[:n], err
	}
	return dst[:n+m], nil
}

// DecompressSnapshot decodes the next snapshot into a Field: Advance, then
// AppendValues into a buffer the stream reuses across snapshots. A frame
// Advance rejects leaves the stream state untouched; once Advance commits,
// the restore fails only on a recipe whose permutation is corrupt.
func (td *TemporalDecoder) DecompressSnapshot(c *TemporalCompressed) (*Field, error) {
	if err := td.Advance(c); err != nil {
		return nil, err
	}
	flat, err := td.AppendValues(td.flat[:0])
	if err != nil {
		return nil, err
	}
	td.flat = flat
	return FieldFromValues(td.dec.mesh, c.FieldName, flat)
}

// Mesh exposes the topology of the last decoded keyframe.
func (td *TemporalDecoder) Mesh() *Mesh {
	if td.dec == nil {
		return nil
	}
	return td.dec.mesh
}
