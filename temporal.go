package zmesh

import (
	"bytes"
	"fmt"
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

// TemporalDecoder reconstructs a quantity stream snapshot by snapshot.
type TemporalDecoder struct {
	// source hands out the Decoder for a keyframe's structure bytes.
	source    func(structure []byte) (*Decoder, error)
	dec       *Decoder // mesh and recipe of the last keyframe
	prevRecon []float64
	// Stream identity, pinned by the last keyframe. Delta frames must match
	// it exactly; a frame from another stream that happens to have the same
	// length must be rejected, not silently accumulated.
	layout    Layout
	curve     string
	fieldName string
	// Scratch buffers reused across snapshots.
	flat      []float64
	nextRecon []float64

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

// DecompressSnapshot decodes the next snapshot. Keyframes reset the stream
// state (and carry the topology); delta frames require the preceding
// frames to have been decoded in order, and must match the stream identity
// (layout, curve, field) established by the last keyframe.
//
// Decoder state commits only after the snapshot fully decodes: a corrupt
// frame — even one that passes CRC and codec framing but fails later
// validation — leaves the stream state untouched, so the stream keeps
// decoding from where it was.
func (td *TemporalDecoder) DecompressSnapshot(c *TemporalCompressed) (f *Field, err error) {
	defer td.stats.abortOn(&err)
	dec := td.dec
	switch {
	case c.Keyframe:
		if len(c.Structure) == 0 {
			return nil, fmt.Errorf("zmesh: keyframe without topology")
		}
		if dec, err = td.source(c.Structure); err != nil {
			return nil, err
		}
	// Delta frame: validate against the stream identity first.
	case dec == nil:
		return nil, fmt.Errorf("zmesh: delta frame before any keyframe")
	case c.Layout != td.layout || c.Curve != td.curve:
		return nil, fmt.Errorf("zmesh: delta frame layout %v/%s does not match stream keyframe %v/%s",
			c.Layout, c.Curve, td.layout, td.curve)
	case c.FieldName != td.fieldName:
		return nil, fmt.Errorf("zmesh: delta frame for field %q on a stream of %q",
			c.FieldName, td.fieldName)
	}
	var env *containerStats
	if td.stats != nil {
		env = &td.stats.envelope
	}
	t0 := stageStart(env != nil)
	recipe, vals, _, err := dec.decodeOrdered(&c.Compressed, env)
	if err != nil {
		return nil, err
	}
	if env != nil {
		td.stats.codec.Since(t0)
	}
	recon := vals
	if !c.Keyframe {
		if len(vals) != len(td.prevRecon) {
			return nil, fmt.Errorf("zmesh: delta frame length %d, stream has %d", len(vals), len(td.prevRecon))
		}
		// Accumulate into a candidate buffer; prevRecon stays untouched until
		// the frame fully decodes.
		if cap(td.nextRecon) < len(vals) {
			td.nextRecon = make([]float64, len(vals))
		}
		recon = td.nextRecon[:len(vals)]
		for i := range recon {
			recon[i] = td.prevRecon[i] + vals[i]
		}
	}
	flat, err := recipe.RestoreTo(td.flat, recon)
	if err != nil {
		return nil, err
	}
	td.flat = flat
	if f, err = FieldFromValues(dec.mesh, c.FieldName, flat); err != nil {
		return nil, err
	}
	// Commit. A keyframe resets the stream; a delta swaps the candidate in
	// and the old buffer becomes the next call's scratch, so steady-state
	// delta decoding allocates no stream slices.
	if c.Keyframe {
		td.dec = dec
		td.prevRecon = recon
		td.layout, td.curve, td.fieldName = c.Layout, c.Curve, c.FieldName
	} else {
		td.prevRecon, td.nextRecon = recon, td.prevRecon
	}
	td.stats.commit(c.Keyframe, len(vals)*8, len(c.Payload))
	return f, nil
}

// Mesh exposes the topology of the last decoded keyframe.
func (td *TemporalDecoder) Mesh() *Mesh {
	if td.dec == nil {
		return nil
	}
	return td.dec.mesh
}
