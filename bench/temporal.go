package main

import (
	"context"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	zmesh "repro"
	"repro/internal/amr"
	"repro/internal/server"
	"repro/internal/telemetry"
)

const (
	temporalSnaps  = 8 // per field and session; the regrid comes at snapshot 4
	temporalFields = 2 // dens, pres
	readLevels     = 2
	readTiers      = 4
	// mirrorKeep is how many of the latest checkpoints keep their client-side
	// reconstructions; the read phase reads those.
	mirrorKeep = 3
	// sessionJitter is added to every value once per session, so no two
	// sessions store the same objects and nothing dedups.
	sessionJitter = 1.0 / 1024
)

// Read kinds, in schedule order.
const (
	readFull = iota
	readLevelsKind
	readTiersKind
	numReadKinds
)

var readKindNames = [numReadKinds]string{"full", "levels", "tiers"}

// mirror is what a client-side TemporalDecoder reconstructed from the frames
// of one checkpoint: the reference every read is checked against.
type mirror struct {
	id     string
	values [temporalFields][temporalSnaps][]float64
}

// temporal puts writes beside reads on the session/store layer: one writer
// appends sessions of a moving front (a regrid at snapshot 4 forces a second
// keyframe, the other frames are deltas) and seals them; then `clients`
// readers read the last snapshot of sealed checkpoints back in full, by levels
// and by tiers. Every read replays the whole chain of eight frames: the three
// latency distributions stay narrow, so their medians are steady with the few
// dozen samples a run has time for.
type temporal struct {
	checker
	d        *daemon
	storeDir string
	snaps    [temporalSnaps]*dataset
	seed     int64
	round    int
	mirrors  []*mirror
	flat     []float64

	appendMs, sealMs samples
	readMs           [numReadKinds]samples
	writeTime        time.Duration // create + appends + seal, summed
	appended         int64         // raw bytes
	measuredSessions int
	raw              int64
	storeBytes0      int64 // under StoreDir when the measured phase began
	storeBytes1      int64 // after the last write phase
	snap             telemetry.Snapshot

	decodeMs           samples // mirror TemporalDecoder, per frame
	keyMs, deltaMs     samples // shadow TemporalEncoder (traced runs)
	shadowNs, appendNs int64
}

func (s *temporal) name() string    { return "temporal-store" }
func (s *temporal) check() *checker { return &s.checker }
func (s *temporal) rawBytes() int64 { return s.raw }

func (s *temporal) reset() {
	s.appendMs, s.sealMs = nil, nil
	s.readMs = [numReadKinds]samples{}
	s.writeTime, s.appended, s.measuredSessions = 0, 0, 0
	s.decodeMs, s.keyMs, s.deltaMs = nil, nil, nil
	s.shadowNs, s.appendNs = 0, 0
	s.storeBytes0 = s.storeBytes1
	if s.d != nil {
		s.snap = s.d.srv.Registry().Snapshot()
	}
}

func (s *temporal) reads() []float64 { return concat(s.readMs[:]) }

func (s *temporal) opCostMs() float64 {
	sum := mean(s.appendMs)
	for _, l := range s.readMs {
		sum += mean(l)
	}
	return sum
}

func (s *temporal) close() error {
	if s.d == nil {
		return nil
	}
	d := s.d
	s.d = nil
	return d.stop()
}

func (s *temporal) setup(env *environment) (err error) {
	s.seed = env.seed
	s.storeDir = filepath.Join(env.tmpDir, "store")
	// Flush policy as shipped: the server's defaults, nothing tuned.
	if s.d, err = startDaemon(server.Config{StoreDir: s.storeDir}); err != nil {
		return err
	}
	sz := mid3D
	if env.smoke {
		sz = tiny3D
	}
	// Snapshots 0–3 share one hierarchy while the front advances half a width
	// a step; the blast then drifts by one fine block, the mesh regrids, and
	// snapshots 4–7 share the new hierarchy.
	b := newBlast(env.seed)
	for half, origin := range []blast{b, b.at(2).drift(0.125, 0, 0)} {
		base, err := buildDataset(origin, sz, temporalFields)
		if err != nil {
			return err
		}
		s.snaps[4*half] = base
		for i := 1; i < 4; i++ {
			s.snaps[4*half+i] = base.resample(origin.at(0.5 * float64(i)))
		}
	}
	env.note("temporal-store: %s then %s, %d fields x %d snapshots a session, zmesh/hilbert/sz; store flush policy as shipped",
		s.snaps[0].describe(sz), s.snaps[4].describe(sz), temporalFields, temporalSnaps)
	// Warm-up: one whole session and one read of each kind, untimed.
	ctx := context.Background()
	if err := s.writeSession(ctx, nil); err != nil {
		return err
	}
	for kind := 0; kind < numReadKinds; kind++ {
		if _, err := s.read(ctx, kind, s.mirrors[0], 0, temporalSnaps-1); err != nil {
			return fmt.Errorf("warm-up read %s: %w", readKindNames[kind], err)
		}
	}
	s.reset()
	if s.storeBytes0, err = dirBytes(s.storeDir); err != nil {
		return err
	}
	s.storeBytes1 = s.storeBytes0
	return nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// writeShare is the share of the section's time spent writing; the rest
// reads.
const writeShare = 0.4

// run writes first, then reads.
func (s *temporal) run(d time.Duration, tr *tracer) error {
	s.round++
	ctx := context.Background()
	writeFor := time.Duration(float64(d) * writeShare)
	for deadline := time.Now().Add(writeFor); time.Now().Before(deadline); {
		if err := s.writeSession(ctx, tr); err != nil {
			return err
		}
	}
	var err error
	if s.storeBytes1, err = dirBytes(s.storeDir); err != nil {
		return err
	}
	s.readPhase(ctx, time.Now().Add(d-writeFor), tr)
	return nil
}

// writeSession is one {NewTemporalSession, 16 Append, Seal}. Between the
// timed calls it feeds every accepted frame to a mirror TemporalDecoder and
// bound-checks the reconstruction.
func (s *temporal) writeSession(ctx context.Context, tr *tracer) error {
	// Move every value by the session jitter, in place.
	for _, ds := range s.snaps {
		for _, f := range ds.fields {
			for id := 0; id < ds.mesh.NumBlocks(); id++ {
				data := f.Data(zmesh.BlockID(id))
				for i := range data {
					data[i] += sessionJitter
				}
			}
		}
	}

	sp := tr.start("client.NewTemporalSession", tr.op(), -1)
	t0 := time.Now()
	ts, err := s.d.cl.NewTemporalSession(ctx, zmesh.DefaultOptions())
	dt := time.Since(t0)
	tr.end(sp)
	if err != nil {
		return err
	}
	timed := dt

	m := s.recycleMirror()
	var decs [temporalFields]*zmesh.TemporalDecoder
	var shadow [temporalFields]*zmesh.TemporalEncoder
	for f := range decs {
		decs[f] = zmesh.NewTemporalDecoder()
		if tr != nil {
			if shadow[f], err = zmesh.NewTemporalEncoder(zmesh.DefaultOptions()); err != nil {
				return err
			}
		}
	}
	for snap, ds := range s.snaps {
		for f, field := range ds.fields {
			sp := tr.start("client.Append", tr.op(), -1)
			t0 := time.Now()
			res, err := ts.Append(ctx, field, relBound)
			dt := time.Since(t0)
			tr.end(sp)
			s.appendMs.add(dt)
			s.appendNs += dt.Nanoseconds()
			timed += dt
			s.appended += int64(ds.rawBytes())
			if err != nil {
				s.done(err)
				return err // the stream is broken; later frames would only cascade
			}
			t0 = time.Now()
			recon, err := decs[f].DecompressSnapshot(res.Frame)
			s.decodeMs.add(time.Since(t0))
			if err == nil {
				m.values[f][snap] = amr.AppendLevelOrder(m.values[f][snap][:0], recon)
				s.flat = amr.AppendLevelOrder(s.flat[:0], field)
				err = checkBound(fmt.Sprintf("append %s snap %d", field.Name, snap), s.flat, m.values[f][snap], zmesh.AbsBound(res.Frame.Bound))
			}
			if err == nil && res.Keyframe != (snap%4 == 0) {
				err = fmt.Errorf("append %s snap %d: keyframe=%v", field.Name, snap, res.Keyframe)
			}
			s.done(err)
			if shadow[f] != nil {
				t0 := time.Now()
				tc, err := shadow[f].CompressSnapshot(field, relBound)
				dt := time.Since(t0)
				if err != nil {
					return err
				}
				s.shadowNs += dt.Nanoseconds()
				if tc.Keyframe {
					s.keyMs.add(dt)
				} else {
					s.deltaMs.add(dt)
				}
			}
		}
	}

	sp = tr.start("client.Seal", tr.op(), -1)
	t0 = time.Now()
	m.id, err = ts.Seal(ctx)
	dt = time.Since(t0)
	tr.end(sp)
	s.sealMs.add(dt)
	timed += dt
	s.done(err)
	if err != nil {
		return err
	}
	s.writeTime += timed
	s.measuredSessions++
	for _, ds := range s.snaps {
		s.raw += int64(temporalFields * ds.rawBytes())
	}
	s.mirrors = append(s.mirrors, m)
	return nil
}

// recycleMirror returns a mirror to fill, reusing the buffers of the oldest
// one once mirrorKeep are held.
func (s *temporal) recycleMirror() *mirror {
	if len(s.mirrors) < mirrorKeep {
		return &mirror{}
	}
	m := s.mirrors[0]
	s.mirrors = s.mirrors[1:]
	return m
}

// readPhase runs the closed-loop readers until the deadline. A
// reader cycles full → levels → tiers, an exact 1:1:1 mix, at a seeded
// (checkpoint, field).
func (s *temporal) readPhase(ctx context.Context, deadline time.Time, tr *tracer) {
	const snap = temporalSnaps - 1
	var wg sync.WaitGroup
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.seed*1000 + int64(s.round*64+c)))
			var lat [numReadKinds]samples
			for time.Now().Before(deadline) {
				for kind := 0; kind < numReadKinds; kind++ {
					m, f := s.mirrors[rng.Intn(len(s.mirrors))], rng.Intn(temporalFields)
					sp := tr.start("client.read_"+readKindNames[kind], tr.op(), -1)
					dt, err := s.read(ctx, kind, m, f, snap)
					tr.end(sp)
					s.done(err)
					lat[kind].add(dt)
				}
			}
			mu.Lock()
			for k := range lat {
				s.readMs[k] = append(s.readMs[k], lat[k]...)
				s.raw += int64(len(lat[k]) * s.snaps[snap].rawBytes())
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
}

// read issues one read and checks it against the mirror: a full read is
// bit-exact, a levels read is exactly the head of the stream, and the error
// of a tiers read strictly decreases tier by tier.
func (s *temporal) read(ctx context.Context, kind int, m *mirror, f, snap int) (time.Duration, error) {
	ds := s.snaps[snap]
	want := m.values[f][snap]
	what := fmt.Sprintf("read %s %s snap %d", readKindNames[kind], ds.names[f], snap)
	t0 := time.Now()
	switch kind {
	case readFull:
		got, err := s.d.cl.ReadField(ctx, m.id, ds.names[f], snap)
		dt := time.Since(t0)
		if err != nil {
			return dt, err
		}
		return dt, sameValues(what, got, want)
	case readLevelsKind:
		ld, err := s.d.cl.ReadFieldLevels(ctx, m.id, ds.names[f], snap, readLevels)
		dt := time.Since(t0)
		if err != nil {
			return dt, err
		}
		n, err := zmesh.LevelPrefixCells(ds.mesh, readLevels)
		if err != nil {
			return dt, err
		}
		if ld.Levels != readLevels {
			return dt, fmt.Errorf("%s: %d levels delivered", what, ld.Levels)
		}
		return dt, sameValues(what, ld.Values, want[:n])
	default:
		td, err := s.d.cl.ReadFieldTiers(ctx, m.id, ds.names[f], snap, readTiers)
		dt := time.Since(t0)
		if err != nil {
			return dt, err
		}
		if len(td.Tiers) != readTiers {
			return dt, fmt.Errorf("%s: %d tiers delivered", what, len(td.Tiers))
		}
		prev := math.Inf(1)
		for k := 1; k <= readTiers; k++ {
			vals := td.Values
			if k < readTiers {
				if vals, err = td.DecodePrefix(k); err != nil {
					return dt, fmt.Errorf("%s: tier prefix %d: %w", what, k, err)
				}
			}
			e, err := maxAbsDiff(vals, want)
			if err != nil {
				return dt, fmt.Errorf("%s: %w", what, err)
			}
			if e >= prev {
				return dt, fmt.Errorf("%s: error %g after %d tiers, %g after %d", what, e, k, prev, k-1)
			}
			prev = e
		}
		return dt, nil
	}
}

func sameValues(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i, v := range want {
		if math.Float64bits(got[i]) != math.Float64bits(v) {
			return fmt.Errorf("%s: value %d is %v, want %v", what, i, got[i], v)
		}
	}
	return nil
}

func maxAbsDiff(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%d values, want %d", len(a), len(b))
	}
	var worst float64
	for i, v := range a {
		if d := math.Abs(v - b[i]); d > worst {
			worst = d
		}
	}
	return worst, nil
}

func (s *temporal) endToEnd(r *report) {
	r.set("write_mbps", float64(s.appended)/1e6/s.writeTime.Seconds())
	r.timing("append_p50_ms", s.appendMs)
	r.timing("read_full_p50_ms", s.readMs[readFull])
	r.timing("read_levels_p50_ms", s.readMs[readLevelsKind])
	r.timing("read_tiers_p50_ms", s.readMs[readTiersKind])
	r.set("read_p90_ms", percentile(s.reads(), 0.9))
	r.set("store_bytes_per_raw_byte", float64(s.storeBytes1-s.storeBytes0)/float64(s.appended))
}

func (s *temporal) layers(r *report) {
	r.timing("zmesh.temporal_encode_ms.key", s.keyMs)
	r.timing("zmesh.temporal_encode_ms.delta", s.deltaMs)
	r.timing("zmesh.temporal_decode_ms", s.decodeMs)
	r.set("client.encode_share", float64(s.shadowNs)/float64(s.appendNs))
	r.timing("store.seal_ms", s.sealMs)
	snap := s.d.srv.Registry().Snapshot()
	for _, ep := range []string{"session_frame", "session_seal", "checkpoint_read"} {
		r.set("server."+ep+".latency_p50_ms", snap.Timers["server."+ep+".latency"].P50Ns/1e6)
	}
	delta := func(name string) float64 { return float64(snap.Counters[name] - s.snap.Counters[name]) }
	r.set("store.objects", delta("server.store.objects"))
	r.set("store.dedup_hits", delta("server.store.dedup_hits"))
	r.set("store.bytes_per_checkpoint", float64(s.storeBytes1-s.storeBytes0)/float64(s.measuredSessions))
}
