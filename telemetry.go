package zmesh

import (
	"errors"
	"io"
	"sync"
	"time"

	"repro/internal/compress/container"
	"repro/internal/telemetry"
)

// Telemetry: opt-in pipeline instrumentation.
//
// A Registry collects counters, log-bucketed histograms and per-stage
// wall-time timers (see internal/telemetry and DESIGN.md "Telemetry").
// Instrumentation is attached per Encoder/Decoder with the Instrument
// methods; components without a registry attached pay nothing — the hot
// paths carry nil metric pointers and skip every clock read and atomic, so
// the uninstrumented path is allocation-identical to a build without
// telemetry.
//
// Metric names are hierarchical, dot-separated, and stable:
//
//	encode.fields, encode.bytes_raw, encode.bytes_compressed, encode.errors
//	encode.ratio_milli                    (histogram, ratio × 1000)
//	encode.stage.flatten|reorder|wrap     (timers)
//	encode.stage.codec.<codec>            (timer, compression proper)
//	decode.fields, decode.bytes_raw, decode.bytes_compressed, decode.errors
//	decode.recipe_builds, decode.ratio_milli
//	decode.stage.unwrap|restore, decode.stage.codec.<codec>
//	recipe.setup|sort|descent             (timers; see internal/core)
//	recipe.builds, recipe.cells
//	temporal.encode.keyframes|deltas|commits|aborts
//	temporal.decode.keyframes|deltas|commits|aborts
//	container.checksum_failures
type Registry = telemetry.Registry

// NewRegistry creates an empty telemetry registry.
func NewRegistry() *Registry { return telemetry.NewRegistry() }

// PublishMetrics exposes the registry as a named expvar (visible on
// /debug/vars of any HTTP server with the expvar handler mounted — the
// zmesh CLI's -metricsaddr flag does this). Re-publishing under the same
// name replaces the previous registry.
func PublishMetrics(name string, r *Registry) { telemetry.Publish(name, r) }

// WriteMetricsJSON writes a point-in-time JSON snapshot of the registry.
func WriteMetricsJSON(w io.Writer, r *Registry) error { return r.WriteJSON(w) }

// containerStats counts envelope-level events shared by every decode path.
type containerStats struct {
	checksum *telemetry.Counter // envelopes rejected by CRC32-C
}

func newContainerStats(r *Registry) containerStats {
	return containerStats{checksum: r.Counter("container.checksum_failures")}
}

// note records one failed unwrap attempt.
func (cs *containerStats) note(err error) {
	if cs != nil && errors.Is(err, container.ErrChecksum) {
		cs.checksum.Inc()
	}
}

// encoderStats is the pre-resolved metric set of one instrumented Encoder.
type encoderStats struct {
	fields    *telemetry.Counter
	bytesRaw  *telemetry.Counter
	bytesComp *telemetry.Counter
	errors    *telemetry.Counter
	ratio     *telemetry.Histogram
	flatten   *telemetry.Timer
	reorder   *telemetry.Timer
	codec     *telemetry.Timer
	wrap      *telemetry.Timer
}

func newEncoderStats(r *Registry, codecName string) *encoderStats {
	if r == nil {
		return nil
	}
	return &encoderStats{
		fields:    r.Counter("encode.fields"),
		bytesRaw:  r.Counter("encode.bytes_raw"),
		bytesComp: r.Counter("encode.bytes_compressed"),
		errors:    r.Counter("encode.errors"),
		ratio:     r.Histogram("encode.ratio_milli"),
		flatten:   r.Timer("encode.stage.flatten"),
		reorder:   r.Timer("encode.stage.reorder"),
		codec:     r.Timer("encode.stage.codec." + codecName),
		wrap:      r.Timer("encode.stage.wrap"),
	}
}

// fail counts one failed compression (nil-safe).
func (s *encoderStats) fail() {
	if s != nil {
		s.errors.Inc()
	}
}

// Instrument attaches a telemetry registry to the encoder and returns the
// encoder. All subsequent CompressField/CompressFields calls record bytes
// in/out, the achieved ratio, and per-stage timings. Passing nil detaches.
// Not safe to call concurrently with compression.
func (e *Encoder) Instrument(r *Registry) *Encoder {
	e.stats = newEncoderStats(r, e.opt.Codec)
	return e
}

// decoderStats is the pre-resolved metric set of one instrumented Decoder.
type decoderStats struct {
	fields       *telemetry.Counter
	bytesRaw     *telemetry.Counter
	bytesComp    *telemetry.Counter
	errors       *telemetry.Counter
	recipeBuilds *telemetry.Counter
	ratio        *telemetry.Histogram
	unwrap       *telemetry.Timer
	restore      *telemetry.Timer
	envelope     containerStats

	reg *Registry // for per-codec timer resolution

	mu          sync.RWMutex
	codecTimers map[string]*telemetry.Timer
}

func newDecoderStats(r *Registry) *decoderStats {
	if r == nil {
		return nil
	}
	return &decoderStats{
		fields:       r.Counter("decode.fields"),
		bytesRaw:     r.Counter("decode.bytes_raw"),
		bytesComp:    r.Counter("decode.bytes_compressed"),
		errors:       r.Counter("decode.errors"),
		recipeBuilds: r.Counter("decode.recipe_builds"),
		ratio:        r.Histogram("decode.ratio_milli"),
		unwrap:       r.Timer("decode.stage.unwrap"),
		restore:      r.Timer("decode.stage.restore"),
		envelope:     newContainerStats(r),
		reg:          r,
		codecTimers:  make(map[string]*telemetry.Timer),
	}
}

// codecTimer resolves the per-codec decompression timer. The decoder can
// see many codecs across artifacts, so resolution is lazy with a
// read-mostly cache (one small allocation per *new* codec name, none on the
// steady-state path).
func (s *decoderStats) codecTimer(codec string) *telemetry.Timer {
	s.mu.RLock()
	t, ok := s.codecTimers[codec]
	s.mu.RUnlock()
	if ok {
		return t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok = s.codecTimers[codec]; ok {
		return t
	}
	t = s.reg.Timer("decode.stage.codec." + codec)
	s.codecTimers[codec] = t
	return t
}

// fail counts one failed decompression (nil-safe).
func (s *decoderStats) fail() {
	if s != nil {
		s.errors.Inc()
	}
}

// Instrument attaches a telemetry registry to the decoder and returns the
// decoder. Recipe builds triggered by cache misses record the recipe.*
// stage timers into the same registry. Passing nil detaches. Not safe to
// call concurrently with decompression.
func (d *Decoder) Instrument(r *Registry) *Decoder {
	d.stats = newDecoderStats(r)
	d.reg = r
	return d
}

// temporalStats is the metric set shared by the temporal encoder and
// decoder (resolved under distinct prefixes).
type temporalStats struct {
	keyframes *telemetry.Counter
	deltas    *telemetry.Counter
	commits   *telemetry.Counter
	aborts    *telemetry.Counter
	bytesRaw  *telemetry.Counter
	bytesComp *telemetry.Counter
	ratio     *telemetry.Histogram
	codec     *telemetry.Timer
	envelope  containerStats
}

func newTemporalStats(r *Registry, prefix, codecName string) *temporalStats {
	if r == nil {
		return nil
	}
	codecTimer := prefix + ".stage.codec"
	if codecName != "" {
		codecTimer += "." + codecName
	}
	return &temporalStats{
		keyframes: r.Counter(prefix + ".keyframes"),
		deltas:    r.Counter(prefix + ".deltas"),
		commits:   r.Counter(prefix + ".commits"),
		aborts:    r.Counter(prefix + ".aborts"),
		bytesRaw:  r.Counter(prefix + ".bytes_raw"),
		bytesComp: r.Counter(prefix + ".bytes_compressed"),
		ratio:     r.Histogram(prefix + ".ratio_milli"),
		codec:     r.Timer(codecTimer),
		envelope:  newContainerStats(r),
	}
}

// commit records one successfully encoded/decoded frame.
func (s *temporalStats) commit(keyframe bool, rawBytes, compBytes int) {
	if s == nil {
		return
	}
	if keyframe {
		s.keyframes.Inc()
	} else {
		s.deltas.Inc()
	}
	s.commits.Inc()
	s.bytesRaw.Add(int64(rawBytes))
	s.bytesComp.Add(int64(compBytes))
	if compBytes > 0 {
		s.ratio.ObserveMilli(float64(rawBytes) / float64(compBytes))
	}
}

// abortOn records a frame that failed before commit; each temporal method
// defers it once on its named error.
func (s *temporalStats) abortOn(err *error) {
	if s != nil && *err != nil {
		s.aborts.Inc()
	}
}

// Instrument attaches a telemetry registry to the temporal encoder and
// returns it. Keyframe recipe rebuilds record the recipe.* stages into the
// same registry; frames record key/delta, commit/abort and ratio metrics.
// Passing nil detaches. Not safe to call concurrently with encoding.
func (te *TemporalEncoder) Instrument(r *Registry) *TemporalEncoder {
	te.stats = newTemporalStats(r, "temporal.encode", te.opt.Codec)
	te.reg = r
	return te
}

// Instrument attaches a telemetry registry to the temporal decoder and
// returns it. Passing nil detaches. Not safe to call concurrently with
// decoding.
func (td *TemporalDecoder) Instrument(r *Registry) *TemporalDecoder {
	td.stats = newTemporalStats(r, "temporal.decode", "")
	td.reg = r
	return td
}

// stageStart returns the stage clock for an instrumented component; the
// zero Time otherwise. Keeping the clock read behind the nil check keeps
// uninstrumented paths free of time syscalls.
func stageStart(instrumented bool) time.Time {
	if !instrumented {
		return time.Time{}
	}
	return time.Now()
}
