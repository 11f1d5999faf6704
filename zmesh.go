// Package zmesh is the public API of the zMesh reproduction: error-bounded
// lossy compression of block-structured AMR data with the paper's level
// reordering (Luo et al., "zMesh: Exploring Application Characteristics to
// Improve Lossy Compression Ratio for Adaptive Mesh Refinement", IPDPS'21).
//
// The workflow mirrors an AMR application's I/O path:
//
//  1. Obtain a checkpoint — run one of the built-in simulations with
//     Generate, or adapt a hierarchy to your own field with BuildAdaptive.
//  2. Create an Encoder for the mesh with the desired layout (LayoutZMesh
//     for the paper's reordering), sibling curve, and codec ("sz", "zfp"
//     or the lossless "gzip").
//     The encoder derives the restore recipe from the mesh topology once
//     and reuses it for every quantity.
//  3. CompressField each quantity. The compressed artifact stores no
//     permutation: a Decoder rebuilds the identical recipe from the AMR
//     tree metadata (Mesh.Structure) that applications already persist.
//
// See examples/ for runnable end-to-end programs.
package zmesh

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/amr"
	"repro/internal/compress"
	"repro/internal/compress/container"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"

	// Register the built-in codecs.
	_ "repro/internal/compress/lossless"
	_ "repro/internal/compress/sz"
	_ "repro/internal/compress/zfp"
)

// Re-exported substrate types. The aliases let downstream code use the AMR
// hierarchy, fields and checkpoints through the public package.
type (
	// Mesh is a block-structured AMR hierarchy.
	Mesh = amr.Mesh
	// Field is one scalar quantity over a mesh.
	Field = amr.Field
	// BlockID identifies a block within a mesh.
	BlockID = amr.BlockID
	// Checkpoint is a mesh plus one field per physical quantity.
	Checkpoint = sim.Checkpoint
	// BuildOptions configures BuildAdaptive.
	BuildOptions = amr.BuildOptions
	// GenerateOptions configures Generate.
	GenerateOptions = sim.CheckpointOptions
	// Layout selects the serialization order (see the Layout* constants).
	Layout = core.Layout
	// Bound is an error-bound request.
	Bound = compress.Bound
)

// Layout choices.
const (
	// LayoutLevel is the application baseline: level-by-level arrays.
	LayoutLevel = core.LevelOrder
	// LayoutSFC orders each level along a space-filling curve, levels kept
	// separate (the within-level baseline).
	LayoutSFC = core.SFCWithinLevel
	// LayoutZMesh is the paper's chained-tree cross-level reordering.
	LayoutZMesh = core.ZMesh
	// LayoutTAC partitions each level into compact padded 3-D boxes and
	// compresses every box as a dense array with the dims-aware codec (the
	// TAC/TAC+ line of follow-up work).
	LayoutTAC = core.TAC3D
	// LayoutAuto asks NewEncoder to choose: it is replaced by
	// ResolveAuto(mesh dims, codec) when the encoder is built, so it never
	// appears in an artifact's Layout field.
	LayoutAuto = core.AutoLayout
)

// ErrAutoLayout is returned where LayoutAuto is not meaningful: decoders and
// temporal encoders need the concrete order an artifact records.
var ErrAutoLayout = core.ErrAutoLayout

// ResolveAuto is the whole LayoutAuto policy: the concrete layout an encoder
// for a dims-dimensional mesh and the named codec uses. It reads nothing but
// its arguments — no field data, no trial compression — so every encoder,
// cache key and gate that needs the answer calls this one function. The
// evidence behind each arm is in DESIGN.md "Auto rule".
func ResolveAuto(dims int, codec string) Layout {
	switch {
	case codec == "gzip":
		return LayoutLevel
	case dims == 3 || codec == "zfp":
		return LayoutTAC
	default:
		return LayoutZMesh
	}
}

// AbsBound bounds the point-wise absolute error.
func AbsBound(v float64) Bound { return compress.AbsBound(v) }

// RelBound bounds the point-wise error relative to the field's value range.
func RelBound(v float64) Bound { return compress.RelBound(v) }

// NewMesh creates an AMR mesh (dims 2 or 3, even blockSize, rootDims blocks
// at level 0).
func NewMesh(dims, blockSize int, rootDims [3]int) (*Mesh, error) {
	return amr.NewMesh(dims, blockSize, rootDims)
}

// NewField allocates a zero field over the mesh.
func NewField(m *Mesh, name string) *Field { return amr.NewField(m, name) }

// BuildAdaptive constructs a hierarchy adapted to an analytic field.
func BuildAdaptive(opt BuildOptions, fn func(x, y, z float64) float64) (*Mesh, *Field, error) {
	return amr.BuildAdaptive(opt, fn)
}

// SampleField samples another quantity onto an existing hierarchy.
func SampleField(m *Mesh, name string, fn func(x, y, z float64) float64) *Field {
	return amr.SampleField(m, name, fn)
}

// Generate runs a built-in simulation problem ("sod", "sedov", "blast",
// "kh") and projects it onto an AMR hierarchy, yielding a multi-quantity
// checkpoint. A zero-valued GenerateOptions selects sensible defaults.
func Generate(problem string, opt GenerateOptions) (*Checkpoint, error) {
	def := sim.DefaultCheckpointOptions()
	if opt.Resolution == 0 {
		opt.Resolution = def.Resolution
	}
	if opt.TScale == 0 {
		opt.TScale = def.TScale
	}
	if opt.BlockSize == 0 {
		opt.BlockSize = def.BlockSize
	}
	if opt.RootDims == ([3]int{}) {
		opt.RootDims = def.RootDims
	}
	if opt.MaxDepth == 0 {
		opt.MaxDepth = def.MaxDepth
	}
	if opt.Threshold == 0 {
		opt.Threshold = def.Threshold
	}
	return sim.GenerateCheckpoint(problem, opt)
}

// Problems lists the built-in simulation problems.
func Problems() []string { return sim.Problems() }

// Codecs lists the registered compressors ("gzip", "sz", "zfp").
func Codecs() []string { return compress.Codecs() }

// Options configures an Encoder/Decoder.
type Options struct {
	// Layout is the serialization order; LayoutZMesh is the paper's method.
	Layout Layout
	// Curve orders siblings: "morton" (Z-order), "hilbert", or "rowmajor".
	Curve string
	// Codec is the compressor: "sz", "zfp", or lossless "gzip".
	Codec string
}

// DefaultOptions is zMesh with Hilbert sibling order over SZ — the
// configuration the paper reports the largest gains for.
func DefaultOptions() Options {
	return Options{Layout: LayoutZMesh, Curve: "hilbert", Codec: "sz"}
}

func (o *Options) fillDefaults() {
	if o.Curve == "" {
		o.Curve = "hilbert"
	}
	if o.Codec == "" {
		o.Codec = "sz"
	}
}

// Compressed is the artifact produced for one field. Note what it does NOT
// contain: any permutation or index. The layout is undone at decompression
// time from the mesh topology alone.
type Compressed struct {
	FieldName string
	Layout    Layout
	Curve     string
	Codec     string
	NumValues int
	// Payload is the codec output wrapped in the self-describing container
	// envelope (codec name, value count, CRC32-C — see
	// internal/compress/container). Decoders reject a payload without it.
	Payload []byte
}

// Ratio reports the compression ratio (uncompressed float64 bytes over
// payload bytes). The payload includes the container envelope, so the ratio
// accounts for the full stored artifact.
func (c *Compressed) Ratio() float64 {
	return compress.Ratio(c.NumValues, c.Payload)
}

// Encoder compresses fields of one mesh. Building it derives the restore
// recipe once; compressing additional quantities reuses it, which is how
// the recipe cost amortizes (paper's overhead experiment).
type Encoder struct {
	opt    Options
	mesh   *Mesh
	recipe *core.Recipe
	codec  compress.Compressor
	stats  *encoderStats // nil unless Instrument attached a registry
}

// NewEncoder derives the recipe for the mesh and layout.
func NewEncoder(m *Mesh, opt Options) (*Encoder, error) {
	return NewEncoderObserved(m, opt, nil)
}

// NewEncoderObserved is NewEncoder with telemetry: the recipe construction
// records the recipe.* stage timers and counters into r, and the returned
// encoder comes back already instrumented (as if Instrument(r) had been
// called). A nil registry makes it identical to NewEncoder. Long-lived
// services that cache encoders use this so cache misses are visible as
// recipe.builds increments while cache hits leave the counter flat.
func NewEncoderObserved(m *Mesh, opt Options, r *Registry) (*Encoder, error) {
	opt.fillDefaults()
	codec, err := compress.Get(opt.Codec)
	if err != nil {
		return nil, err
	}
	if opt.Layout == LayoutAuto {
		opt.Layout = ResolveAuto(m.Dims(), opt.Codec)
	}
	e := &Encoder{opt: opt, mesh: m, codec: codec}
	if e.recipe, err = core.BuildRecipeObserved(m, opt.Layout, opt.Curve, r); err != nil {
		return nil, err
	}
	if r != nil {
		e.Instrument(r)
	}
	return e, nil
}

// CompressField serializes the field in the encoder's layout and compresses
// it with the error bound.
func (e *Encoder) CompressField(f *Field, bound Bound) (*Compressed, error) {
	return e.compressInto(e.codec, f, bound, &Scratch{})
}

// CompressFields compresses several quantities of the mesh concurrently
// with a bounded worker pool, preserving input order in the result. All
// fields share the encoder's recipe (zMesh's amortization), and each
// worker owns its codec instance, so the pool scales across cores the way
// a checkpoint writer compressing many variables does. workers <= 0 uses
// GOMAXPROCS.
func (e *Encoder) CompressFields(fields []*Field, bound Bound, workers int) ([]*Compressed, error) {
	return e.CompressFieldsContext(context.Background(), fields, bound, workers)
}

// CompressFieldsContext is CompressFields with cancellation. The worker pool
// observes ctx between fields — an in-flight codec call runs to completion,
// but no further field starts once ctx is done, and the call returns
// ctx.Err(). An empty fields slice returns an empty result without spinning
// up any workers.
func (e *Encoder) CompressFieldsContext(ctx context.Context, fields []*Field, bound Bound, workers int) ([]*Compressed, error) {
	if len(fields) == 0 {
		return []*Compressed{}, nil
	}
	workers = clampWorkers(workers, len(fields))
	// Per-worker codecs: implementations keep no cross-call state, but
	// isolating instances keeps the contract local. Instantiate before the
	// job loop so a registry failure aborts the whole call instead of
	// surfacing only on the indices an unlucky worker happened to consume.
	codecs := make([]compress.Compressor, workers)
	for w := range codecs {
		codec, err := compress.Get(e.opt.Codec)
		if err != nil {
			return nil, err
		}
		codecs[w] = codec
	}
	out := make([]*Compressed, len(fields))
	errs := make([]error, len(fields))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(codec compress.Compressor) {
			defer wg.Done()
			// Per-worker scratch: the level-order and reordered streams are
			// reused across this worker's fields, so the pool allocates two
			// stream buffers per worker instead of two per field.
			var scratch Scratch
			for idx := range jobs {
				if err := ctx.Err(); err != nil {
					errs[idx] = err
					continue
				}
				out[idx], errs[idx] = e.compressInto(codec, fields[idx], bound, &scratch)
			}
		}(codecs[w])
	}
dispatch:
	for i := range fields {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("zmesh: field %q: %w", fields[i].Name, err)
		}
	}
	return out, nil
}

// clampWorkers resolves a requested worker-pool size against a job count:
// non-positive requests default to GOMAXPROCS, the pool never exceeds the
// number of jobs, and at least one worker always runs. It is the single
// clamp shared by the encode and decode pools.
func clampWorkers(workers, jobs int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Scratch carries the reusable stream buffers of one compression worker or
// of the value-stream hot paths (CompressValuesScratch,
// DecompressValuesScratch). The zero value is ready to use; the buffers grow
// on demand and are reused by subsequent calls, so a pooled Scratch makes
// steady-state calls allocation-free on the permutation stages. A Scratch
// must not be used concurrently.
type Scratch struct {
	ordered []float64
	flat    []float64
	tac     tacFrameScratch
}

// PinnedBytes reports the total capacity, in bytes, of the scratch's
// internal buffers. Pools that cap how much memory an idle pooled object
// may pin use this to audit a Scratch the same way they audit their own
// byte buffers (one huge request must not park its buffers in the pool
// forever).
func (s *Scratch) PinnedBytes() int {
	return 8*(cap(s.ordered)+cap(s.flat)) + s.tac.pinnedBytes()
}

// compressInto is CompressField with an explicit codec instance and
// caller-owned scratch buffers; the buffers are grown once and reused across
// calls.
func (e *Encoder) compressInto(codec compress.Compressor, f *Field, bound Bound, scratch *Scratch) (*Compressed, error) {
	s := e.stats
	if f.Mesh() != e.mesh {
		s.fail()
		return nil, fmt.Errorf("zmesh: field %q belongs to a different mesh", f.Name)
	}
	t0 := stageStart(s != nil)
	scratch.flat = amr.AppendLevelOrder(scratch.flat, f)
	if s != nil {
		s.flatten.Since(t0)
		t0 = time.Now()
	}
	ordered, err := e.recipe.ApplyTo(scratch.ordered, scratch.flat)
	if err != nil {
		s.fail()
		return nil, err
	}
	scratch.ordered = ordered
	if s != nil {
		s.reorder.Since(t0)
		t0 = time.Now()
	}
	return e.encodeOrdered(codec, f.Name, ordered, bound, &scratch.tac, t0)
}

// encodeOrdered runs the codec and container stages over a stream already
// reordered by the encoder's recipe — the shared tail of compressInto,
// CompressValuesScratch and every temporal frame. t0 is the reorder-stage end
// time (unused without telemetry).
func (e *Encoder) encodeOrdered(codec compress.Compressor, name string, ordered []float64, bound Bound, tac *tacFrameScratch, t0 time.Time) (*Compressed, error) {
	s := e.stats
	var payload []byte
	var err error
	if e.opt.Layout == core.TAC3D {
		payload, err = tacEncodeStream(codec, e.mesh.Dims(), e.recipe.TACPlan(), ordered, bound, tac)
	} else {
		payload, err = codec.Compress(ordered, []int{len(ordered)}, bound)
	}
	if err != nil {
		s.fail()
		return nil, err
	}
	if s != nil {
		s.codec.Since(t0)
		t0 = time.Now()
	}
	wrapped, err := container.Wrap(e.opt.Codec, len(ordered), payload)
	if err != nil {
		s.fail()
		return nil, fmt.Errorf("zmesh: field %q: %w", name, err)
	}
	if s != nil {
		s.wrap.Since(t0)
		s.fields.Inc()
		s.bytesRaw.Add(int64(len(ordered) * 8))
		s.bytesComp.Add(int64(len(wrapped)))
		s.ratio.ObserveMilli(compress.Ratio(len(ordered), wrapped))
	}
	return &Compressed{
		FieldName: name,
		Layout:    e.opt.Layout,
		Curve:     e.opt.Curve,
		Codec:     e.opt.Codec,
		NumValues: len(ordered),
		Payload:   wrapped,
	}, nil
}

// CompressValues compresses a level-order value stream directly, without
// materializing a Field — the wire-facing sibling of CompressField for
// callers (like the zmeshd service) that already hold the FieldValues
// serialization. values must carry exactly one value per mesh cell in level
// order; name tags the artifact. The artifact is byte-identical to
// CompressField of the equivalent field.
func (e *Encoder) CompressValues(name string, values []float64, bound Bound) (*Compressed, error) {
	return e.CompressValuesScratch(name, values, bound, &Scratch{})
}

// CompressValuesScratch is CompressValues with caller-owned scratch: the
// reorder buffer is reused across calls, so pooled callers allocate nothing
// on the permutation stage.
func (e *Encoder) CompressValuesScratch(name string, values []float64, bound Bound, scratch *Scratch) (*Compressed, error) {
	s := e.stats
	t0 := stageStart(s != nil)
	ordered, err := e.recipe.ApplyTo(scratch.ordered, values)
	if err != nil {
		s.fail()
		return nil, fmt.Errorf("zmesh: field %q: %w", name, err)
	}
	scratch.ordered = ordered
	if s != nil {
		s.reorder.Since(t0)
		t0 = time.Now()
	}
	return e.encodeOrdered(e.codec, name, ordered, bound, &scratch.tac, t0)
}

// Decoder decompresses fields back onto a mesh topology. It can be built
// either from a live mesh or from serialized tree metadata (Structure).
//
// A Decoder is safe for concurrent use: the recipe cache is guarded by a
// read-write mutex, so many goroutines may call DecompressField (across the
// same or distinct layout/curve keys) on one Decoder.
type Decoder struct {
	mesh  *Mesh
	stats *decoderStats // nil unless Instrument attached a registry
	reg   *Registry     // registry for observed recipe builds (may be nil)

	mu      sync.RWMutex
	recipes map[recipeKey]*core.Recipe
}

type recipeKey struct {
	layout Layout
	curve  string
}

// NewDecoder wraps an existing mesh.
func NewDecoder(m *Mesh) *Decoder {
	return &Decoder{mesh: m, recipes: make(map[recipeKey]*core.Recipe)}
}

// NewDecoderFromStructure rebuilds the mesh topology from metadata produced
// by (*Mesh).Structure — the decompression-side path of the paper, where
// the recipe is regenerated rather than stored.
func NewDecoderFromStructure(structure []byte) (*Decoder, error) {
	m, err := amr.MeshFromStructure(structure)
	if err != nil {
		return nil, err
	}
	return NewDecoder(m), nil
}

// Mesh exposes the decoder's mesh (for reading decompressed fields).
func (d *Decoder) Mesh() *Mesh { return d.mesh }

// recipeFor returns the cached restore recipe for a layout/curve pair,
// building and caching it on first use. Safe for concurrent callers.
func (d *Decoder) recipeFor(layout Layout, curve string) (*core.Recipe, error) {
	key := recipeKey{layout, curve}
	d.mu.RLock()
	recipe, ok := d.recipes[key]
	d.mu.RUnlock()
	if ok {
		return recipe, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if recipe, ok = d.recipes[key]; ok {
		return recipe, nil
	}
	recipe, err := core.BuildRecipeObserved(d.mesh, layout, curve, d.reg)
	if err != nil {
		return nil, err
	}
	if s := d.stats; s != nil {
		s.recipeBuilds.Inc()
	}
	d.recipes[key] = recipe
	return recipe, nil
}

// DecompressField reverses CompressField, returning a field bound to the
// decoder's mesh. The reconstruction obeys the bound used at compression.
// The container envelope (codec, value count, CRC32-C) is verified before
// any codec runs; corrupt or truncated payloads fail with an error rather
// than decoding into silently wrong data. Safe for concurrent use.
func (d *Decoder) DecompressField(c *Compressed) (*Field, error) {
	f, _, err := d.decompressInto(c, nil)
	return f, err
}

// decodeOrdered is a decompression up to the point where the stream is
// decoded but still in layout order: recipe lookup, envelope verification
// (CRC, then codec and count against the artifact's metadata), codec dispatch
// and the value-count check. restoreStream finishes it for the field paths; a
// temporal stream accumulates in layout order first. Failure accounting is the
// caller's: it counts the error, and env is its envelope counter set (nil
// when uninstrumented). t0 is the codec-stage end time.
func (d *Decoder) decodeOrdered(c *Compressed, env *containerStats) (recipe *core.Recipe, ordered []float64, t0 time.Time, err error) {
	s := d.stats
	if recipe, err = d.recipeFor(c.Layout, c.Curve); err != nil {
		return nil, nil, t0, err
	}
	t0 = stageStart(s != nil)
	e, err := container.Unwrap(c.Payload)
	if err != nil {
		env.note(err)
		return nil, nil, t0, fmt.Errorf("zmesh: field %q: %w", c.FieldName, err)
	}
	// Envelope metadata must agree with the artifact's own fields.
	if c.Codec != "" && e.Codec != c.Codec {
		return nil, nil, t0, fmt.Errorf("zmesh: field %q: envelope codec %q disagrees with metadata %q",
			c.FieldName, e.Codec, c.Codec)
	}
	if c.NumValues != 0 && e.NumValues != c.NumValues {
		return nil, nil, t0, fmt.Errorf("zmesh: field %q: envelope claims %d values, metadata %d",
			c.FieldName, e.NumValues, c.NumValues)
	}
	codec, err := compress.Get(e.Codec)
	if err != nil {
		return nil, nil, t0, err
	}
	if s != nil {
		s.unwrap.Since(t0)
		t0 = time.Now()
	}
	if recipe.Layout() == core.TAC3D {
		ordered, err = tacDecodeStream(codec, d.mesh.Dims(), recipe.TACPlan(), recipe.Len(), e.Payload)
	} else {
		ordered, err = codec.Decompress(e.Payload)
	}
	if err != nil {
		return nil, nil, t0, err
	}
	if s != nil {
		s.codecTimer(e.Codec).Since(t0)
		t0 = time.Now()
	}
	if c.NumValues != 0 && len(ordered) != c.NumValues {
		return nil, nil, t0, fmt.Errorf("zmesh: field %q: payload decoded to %d values, expected %d",
			c.FieldName, len(ordered), c.NumValues)
	}
	return recipe, ordered, t0, nil
}

// restoreStream is the shared front half of the field decompression paths:
// decodeOrdered plus the layout restore into flatBuf (reused when capacity
// suffices). It returns the level-order stream and the restore-stage start
// time; the caller records the restore timer and success counters once its
// own tail stages finish.
func (d *Decoder) restoreStream(c *Compressed, flatBuf []float64) (flat []float64, t0 time.Time, err error) {
	var env *containerStats
	if d.stats != nil {
		env = &d.stats.envelope
	}
	recipe, ordered, t0, err := d.decodeOrdered(c, env)
	if err == nil {
		flat, err = recipe.RestoreTo(flatBuf, ordered)
	}
	if err != nil {
		d.stats.fail()
		return nil, t0, err
	}
	return flat, t0, nil
}

// noteDecode records the success telemetry shared by the decompression
// paths: n values decoded, t0 the restore-stage start time from
// restoreStream.
func (d *Decoder) noteDecode(c *Compressed, n int, t0 time.Time) {
	s := d.stats
	if s == nil {
		return
	}
	s.restore.Since(t0)
	s.fields.Inc()
	s.bytesComp.Add(int64(len(c.Payload)))
	s.bytesRaw.Add(int64(n * 8))
	s.ratio.ObserveMilli(compress.Ratio(n, c.Payload))
}

// DecompressValues reverses CompressValues: it returns the reconstructed
// level-order value stream without materializing a Field — the wire-facing
// sibling of DecompressField. The envelope is verified the same way.
func (d *Decoder) DecompressValues(c *Compressed) ([]float64, error) {
	return d.DecompressValuesScratch(c, &Scratch{})
}

// DecompressValuesScratch is DecompressValues with caller-owned scratch.
// The returned slice aliases scratch's restore buffer: the caller must be
// done with it before the Scratch is reused or returned to a pool.
func (d *Decoder) DecompressValuesScratch(c *Compressed, scratch *Scratch) ([]float64, error) {
	flat, t0, err := d.restoreStream(c, scratch.flat)
	if err != nil {
		return nil, err
	}
	scratch.flat = flat
	d.noteDecode(c, len(flat), t0)
	return flat, nil
}

// decompressInto is DecompressField with a caller-owned scratch buffer for
// the restored level-order stream; it returns the (possibly grown) buffer
// for reuse. The returned field owns its data — the scratch may be reused
// immediately.
func (d *Decoder) decompressInto(c *Compressed, flatBuf []float64) (*Field, []float64, error) {
	flat, t0, err := d.restoreStream(c, flatBuf)
	if err != nil {
		return nil, flatBuf, err
	}
	f, err := FieldFromValues(d.mesh, c.FieldName, flat)
	if err != nil {
		d.stats.fail()
		return nil, flat, err
	}
	d.noteDecode(c, len(flat), t0)
	return f, flat, nil
}

// DecompressFields decompresses several artifacts concurrently with a
// bounded worker pool, preserving input order — the decode-side mirror of
// Encoder.CompressFields, for checkpoint readers restoring many quantities.
// All workers share the decoder's recipe cache (safe for concurrent use).
// workers <= 0 uses GOMAXPROCS.
func (d *Decoder) DecompressFields(cs []*Compressed, workers int) ([]*Field, error) {
	return d.DecompressFieldsContext(context.Background(), cs, workers)
}

// DecompressFieldsContext is DecompressFields with cancellation. The worker
// pool observes ctx between artifacts — an in-flight decode runs to
// completion, but no further artifact starts once ctx is done, and the call
// returns ctx.Err(). An empty cs slice returns an empty result without
// spinning up any workers.
func (d *Decoder) DecompressFieldsContext(ctx context.Context, cs []*Compressed, workers int) ([]*Field, error) {
	if len(cs) == 0 {
		return []*Field{}, nil
	}
	workers = clampWorkers(workers, len(cs))
	out := make([]*Field, len(cs))
	errs := make([]error, len(cs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker scratch for the restored stream (see decompressInto).
			var flat []float64
			for idx := range jobs {
				if err := ctx.Err(); err != nil {
					errs[idx] = err
					continue
				}
				out[idx], flat, errs[idx] = d.decompressInto(cs[idx], flat)
			}
		}()
	}
dispatch:
	for i := range cs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("zmesh: field %q: %w", cs[i].FieldName, err)
		}
	}
	return out, nil
}

// Serialize flattens a field in the encoder's layout without compressing —
// used to measure smoothness of the reordered stream.
func (e *Encoder) Serialize(f *Field) ([]float64, error) {
	return e.recipe.Apply(FieldValues(f))
}

// Smoothness measures, re-exported for evaluation code.

// TotalVariation sums first differences of a stream (lower = smoother).
func TotalVariation(x []float64) float64 { return metrics.TotalVariation(x) }

// SmoothnessImprovement reports the percent total-variation reduction of
// reordered vs baseline.
func SmoothnessImprovement(baseline, reordered []float64) float64 {
	return metrics.SmoothnessImprovement(baseline, reordered)
}

// MaxAbsError reports the largest point-wise error between two fields that
// share a mesh.
func MaxAbsError(a, b *Field) (float64, error) {
	return metrics.MaxAbsError(FieldValues(a), FieldValues(b))
}

// PSNR reports the reconstruction peak signal-to-noise ratio in dB.
func PSNR(orig, recon *Field) (float64, error) {
	return metrics.PSNR(FieldValues(orig), FieldValues(recon))
}

// FieldValues returns the field serialized in the application's native
// level order (the baseline stream).
func FieldValues(f *Field) []float64 {
	return amr.Flatten(amr.LevelArrays(f))
}

// EachFieldValues iterates a checkpoint's fields in order, invoking fn
// once per field with its name and level-order value stream — the
// snapshot-walking helper behind batch checkpoint writers (e.g. the zmeshd
// client's CompressCheckpoint). The values slice is reused across calls:
// fn must consume or copy it before returning, and the iteration allocates
// one stream buffer total instead of one per field. Iteration stops at the
// first error, which is returned verbatim.
func EachFieldValues(ck *Checkpoint, fn func(name string, values []float64) error) error {
	var buf []float64
	for _, f := range ck.Fields {
		buf = amr.AppendLevelOrder(buf[:0], f)
		if err := fn(f.Name, buf); err != nil {
			return err
		}
	}
	return nil
}

// FieldFromValues rebuilds a field bound to m from its level-order stream —
// the inverse of FieldValues. The stream length must match the mesh's cell
// count exactly. This is how a process that received raw values over a wire
// (e.g. the zmeshd compression service) re-binds them to a mesh topology.
func FieldFromValues(m *Mesh, name string, values []float64) (*Field, error) {
	levels, err := amr.SplitLevels(m, values)
	if err != nil {
		return nil, err
	}
	return amr.FieldFromLevelArrays(m, name, levels)
}
