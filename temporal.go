package zmesh

import (
	"bytes"
	"fmt"

	"repro/internal/amr"
	"repro/internal/compress"
	"repro/internal/compress/container"
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
// State-machine contract (see DESIGN.md "Temporal stream state machine"):
// both the encoder and the decoder treat their stream state (recipe,
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
	recipe        *core.Recipe
	codec         compress.Compressor
	prevRecon     []float64 // previous reconstruction, layout order
	// Scratch buffers reused across snapshots so steady-state delta
	// encoding allocates no full-stream slices.
	flat   []float64
	stream []float64
	delta  []float64

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
	codec, err := compress.Get(opt.Codec)
	if err != nil {
		return nil, err
	}
	return &TemporalEncoder{opt: opt, codec: codec}, nil
}

// ForceKeyframe makes the next CompressSnapshot emit a keyframe even if the
// topology is unchanged, by discarding the encoder's notion of the previous
// structure. This is the client-side recovery hook for remote streams: when
// the receiving end loses its stream state (an evicted or restarted zmeshd
// session), resending the current snapshot as a keyframe re-establishes
// lockstep without replaying history. The previous reconstruction is left
// in place and is simply replaced by the keyframe's own reconstruction on
// the next successful encode.
func (te *TemporalEncoder) ForceKeyframe() { te.prevStructure = nil }

// CompressSnapshot encodes the next snapshot of the stream. The field's
// mesh may differ from the previous snapshot's (regridding); the encoder
// detects topology changes via the serialized structure.
//
// Encoder state (recipe, topology, reconstruction) commits only after the
// snapshot is fully encoded: a transient codec or bound error leaves the
// stream state untouched, and the next call recovers — with a keyframe if
// nothing has been committed for this topology yet, with a delta against
// the last successfully encoded snapshot otherwise.
func (te *TemporalEncoder) CompressSnapshot(f *Field, bound Bound) (*TemporalCompressed, error) {
	m := f.Mesh()
	structure := m.Structure()
	sameTopology := te.prevStructure != nil && bytes.Equal(structure, te.prevStructure)
	recipe := te.recipe
	if !sameTopology {
		var err error
		recipe, err = core.BuildRecipeObserved(m, te.opt.Layout, te.opt.Curve, 0, te.reg)
		if err != nil {
			te.stats.abort()
			return nil, err
		}
	}
	te.flat = amr.AppendLevelOrder(te.flat, f)
	stream, err := recipe.ApplyTo(te.stream, te.flat)
	if err != nil {
		te.stats.abort()
		return nil, err
	}
	te.stream = stream
	// Resolve the bound against the field itself so delta frames keep the
	// caller's point-wise semantics.
	abs := compress.AbsBound(bound.Absolute(stream))

	if !sameTopology {
		// Keyframe.
		t0 := stageStart(te.stats != nil)
		payload, err := te.codec.Compress(stream, []int{len(stream)}, abs)
		if err != nil {
			te.stats.abort()
			return nil, err
		}
		recon, err := te.codec.Decompress(payload)
		if err != nil {
			te.stats.abort()
			return nil, err
		}
		if s := te.stats; s != nil {
			s.codec.Since(t0)
		}
		wrapped, err := container.Wrap(te.opt.Codec, len(stream), payload)
		if err != nil {
			te.stats.abort()
			return nil, err
		}
		// Commit: the snapshot is fully encoded.
		te.recipe = recipe
		te.prevStructure = structure
		te.prevRecon = recon
		te.stats.commit(true, len(stream)*8, len(wrapped))
		return &TemporalCompressed{
			Compressed: Compressed{
				FieldName: f.Name, Layout: te.opt.Layout, Curve: te.opt.Curve,
				Codec: te.opt.Codec, NumValues: len(stream), Payload: wrapped,
			},
			Keyframe:  true,
			Structure: structure,
			Bound:     abs.Value,
		}, nil
	}
	// Delta frame against the previous reconstruction.
	if len(te.prevRecon) != len(stream) {
		te.stats.abort()
		return nil, fmt.Errorf("zmesh: temporal state out of sync (%d vs %d values)",
			len(te.prevRecon), len(stream))
	}
	if cap(te.delta) < len(stream) {
		te.delta = make([]float64, len(stream))
	}
	delta := te.delta[:len(stream)]
	for i := range delta {
		delta[i] = stream[i] - te.prevRecon[i]
	}
	t0 := stageStart(te.stats != nil)
	payload, err := te.codec.Compress(delta, []int{len(delta)}, abs)
	if err != nil {
		te.stats.abort()
		return nil, err
	}
	dRecon, err := te.codec.Decompress(payload)
	if err != nil {
		te.stats.abort()
		return nil, err
	}
	if s := te.stats; s != nil {
		s.codec.Since(t0)
	}
	wrapped, err := container.Wrap(te.opt.Codec, len(stream), payload)
	if err != nil {
		te.stats.abort()
		return nil, err
	}
	// Commit: advance the reconstruction only once the frame exists.
	for i := range te.prevRecon {
		te.prevRecon[i] += dRecon[i]
	}
	te.stats.commit(false, len(stream)*8, len(wrapped))
	return &TemporalCompressed{
		Compressed: Compressed{
			FieldName: f.Name, Layout: te.opt.Layout, Curve: te.opt.Curve,
			Codec: te.opt.Codec, NumValues: len(stream), Payload: wrapped,
		},
		Bound: abs.Value,
	}, nil
}

// TemporalDecoder reconstructs a quantity stream snapshot by snapshot.
type TemporalDecoder struct {
	recipe    *core.Recipe
	mesh      *Mesh
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
	reg   *Registry      // registry for observed keyframe recipe builds
}

// NewTemporalDecoder creates a decoder for one quantity stream.
func NewTemporalDecoder() *TemporalDecoder { return &TemporalDecoder{} }

// DecompressSnapshot decodes the next snapshot. Keyframes reset the stream
// state (and carry the topology); delta frames require the preceding
// frames to have been decoded in order, and must match the stream identity
// (layout, curve, field) established by the last keyframe.
//
// Decoder state commits only after the snapshot fully decodes: a corrupt
// frame — even one that passes CRC and codec framing but fails later
// validation — leaves the stream state untouched, so the stream keeps
// decoding from where it was.
func (td *TemporalDecoder) DecompressSnapshot(c *TemporalCompressed) (*Field, error) {
	var envStats *containerStats
	if td.stats != nil {
		envStats = &td.stats.envelope
	}
	codecName, payload, err := unwrapPayload(&c.Compressed, envStats)
	if err != nil {
		td.stats.abort()
		return nil, err
	}
	codec, err := compress.Get(codecName)
	if err != nil {
		td.stats.abort()
		return nil, err
	}
	t0 := stageStart(td.stats != nil)
	vals, err := codec.Decompress(payload)
	if err != nil {
		td.stats.abort()
		return nil, err
	}
	if s := td.stats; s != nil {
		s.codec.Since(t0)
	}
	// Same check as Decoder.DecompressField: a payload that decodes to the
	// wrong length must fail loudly instead of flowing into the
	// reconstruction.
	if c.NumValues != 0 && len(vals) != c.NumValues {
		td.stats.abort()
		return nil, fmt.Errorf("zmesh: field %q: payload decoded to %d values, expected %d",
			c.FieldName, len(vals), c.NumValues)
	}
	if c.Keyframe {
		if len(c.Structure) == 0 {
			td.stats.abort()
			return nil, fmt.Errorf("zmesh: keyframe without topology")
		}
		m, err := amr.MeshFromStructure(c.Structure)
		if err != nil {
			td.stats.abort()
			return nil, err
		}
		recipe, err := core.BuildRecipeObserved(m, c.Layout, c.Curve, 0, td.reg)
		if err != nil {
			td.stats.abort()
			return nil, err
		}
		flat, err := recipe.RestoreTo(td.flat, vals)
		if err != nil {
			td.stats.abort()
			return nil, err
		}
		td.flat = flat
		levels, err := amr.SplitLevels(m, flat)
		if err != nil {
			td.stats.abort()
			return nil, err
		}
		f, err := amr.FieldFromLevelArrays(m, c.FieldName, levels)
		if err != nil {
			td.stats.abort()
			return nil, err
		}
		// Commit: the keyframe decoded end to end; it resets the stream.
		td.mesh = m
		td.recipe = recipe
		td.prevRecon = vals
		td.layout = c.Layout
		td.curve = c.Curve
		td.fieldName = c.FieldName
		td.stats.commit(true, len(vals)*8, len(c.Payload))
		return f, nil
	}
	// Delta frame: validate against the stream identity first.
	if td.prevRecon == nil {
		td.stats.abort()
		return nil, fmt.Errorf("zmesh: delta frame before any keyframe")
	}
	if c.Layout != td.layout || c.Curve != td.curve {
		td.stats.abort()
		return nil, fmt.Errorf("zmesh: delta frame layout %v/%s does not match stream keyframe %v/%s",
			c.Layout, c.Curve, td.layout, td.curve)
	}
	if c.FieldName != td.fieldName {
		td.stats.abort()
		return nil, fmt.Errorf("zmesh: delta frame for field %q on a stream of %q",
			c.FieldName, td.fieldName)
	}
	if len(vals) != len(td.prevRecon) {
		td.stats.abort()
		return nil, fmt.Errorf("zmesh: delta frame length %d, stream has %d", len(vals), len(td.prevRecon))
	}
	// Accumulate into a candidate buffer; prevRecon stays untouched until
	// the frame fully decodes.
	if cap(td.nextRecon) < len(vals) {
		td.nextRecon = make([]float64, len(vals))
	}
	next := td.nextRecon[:len(vals)]
	for i := range next {
		next[i] = td.prevRecon[i] + vals[i]
	}
	flat, err := td.recipe.RestoreTo(td.flat, next)
	if err != nil {
		td.stats.abort()
		return nil, err
	}
	td.flat = flat
	levels, err := amr.SplitLevels(td.mesh, flat)
	if err != nil {
		td.stats.abort()
		return nil, err
	}
	f, err := amr.FieldFromLevelArrays(td.mesh, c.FieldName, levels)
	if err != nil {
		td.stats.abort()
		return nil, err
	}
	// Commit: swap the candidate in; the old buffer becomes next call's
	// scratch, so steady-state delta decoding allocates no stream slices.
	td.prevRecon, td.nextRecon = next, td.prevRecon
	td.stats.commit(false, len(vals)*8, len(c.Payload))
	return f, nil
}

// Mesh exposes the topology of the last decoded keyframe.
func (td *TemporalDecoder) Mesh() *Mesh { return td.mesh }
