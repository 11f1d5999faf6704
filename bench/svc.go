package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	zmesh "repro"
	"repro/client"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// daemon is an in-process zmeshd on a loopback port.
type daemon struct {
	srv  *server.Server
	cl   *client.Client
	done chan error
}

func startDaemon(cfg server.Config) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: server.New(cfg), done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ln) }()
	d.cl = client.New("http://" + ln.Addr().String())
	return d, nil
}

// stop drains the daemon and waits for Serve to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// Op kinds of the service mix, in schedule order: 4 Compress : 3 Decompress :
// 2 CompressStream : 1 CompressBatch out of every ten operations.
const (
	opCompress = iota
	opDecompress
	opStream
	opBatch
	numOpKinds
)

var (
	opMix       = [10]int{opCompress, opCompress, opCompress, opCompress, opDecompress, opDecompress, opDecompress, opStream, opStream, opBatch}
	opKindNames = [numOpKinds]string{"compress", "decompress", "stream", "batch"}
	svcCodecs   = []string{"zfp", "sz"}
)

const (
	svcMeshes = 8
	svcFields = 5 // all five go into one CompressBatch
)

// svcMesh is one registered mesh with the library's artifact of every
// (field, pipeline), which server replies are compared against byte for byte.
type svcMesh struct {
	id   string
	ds   *dataset
	raw  [][]byte              // float64-LE bytes per field, for CompressStream
	arts [][]*zmesh.Compressed // [pipeline][field], made by the library
	encs []*zmesh.Encoder      // [pipeline], the library's encoder
}

// svcOp is one timed call with what it was called on.
type svcOp struct {
	kind, mesh, pipeline, field int
	ms                          float64
}

// svc drives the daemon through client.Client with `clients` closed-loop
// clients. The fields are small, so HTTP, wire framing, pooling and
// allocation are a large share of each call.
type svc struct {
	checker
	d      *daemon
	meshes []*svcMesh
	seed   int64
	round  int

	lat  [numOpKinds]samples
	ops  []svcOp // the Compress and Decompress calls, for the paired library timing
	wall time.Duration
	raw  int64
	snap telemetry.Snapshot // server registry at the start of the measured phase
}

func (s *svc) name() string    { return "svc-small-mixed" }
func (s *svc) check() *checker { return &s.checker }
func (s *svc) rawBytes() int64 { return s.raw }

func (s *svc) reset() {
	s.lat = [numOpKinds]samples{}
	s.ops = nil
	s.wall = 0
}

func (s *svc) all() []float64 { return concat(s.lat[:]) }

func (s *svc) opCostMs() float64 {
	var sum float64
	for _, l := range s.lat {
		sum += mean(l)
	}
	return sum
}

func (s *svc) close() error {
	if s.d == nil {
		return nil
	}
	d := s.d
	s.d = nil
	return d.stop()
}

func pipeline(codec string) zmesh.Options {
	return zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: codec}
}

func (s *svc) setup(env *environment) (err error) {
	s.seed = env.seed
	if s.d, err = startDaemon(server.Config{}); err != nil {
		return err
	}
	n := svcMeshes
	if env.smoke {
		n = 2
	}
	ctx := context.Background()
	// Each mesh has the front elsewhere, so the topologies (and mesh ids)
	// differ; all of them fit the server's mesh and encoder LRUs.
	path, err := movingFront(newBlast(env.seed), small2D, n, svcFields)
	if err != nil {
		return err
	}
	env.note("svc-small-mixed: %d meshes from %s, %d fields, zmesh/hilbert under zfp and sz", n, path[0].describe(small2D), svcFields)
	for _, ds := range path {
		m := &svcMesh{ds: ds}
		if m.id, err = s.d.cl.RegisterMesh(ctx, ds.structure); err != nil {
			return err
		}
		for _, codec := range svcCodecs {
			enc, err := zmesh.NewEncoder(ds.mesh, pipeline(codec))
			if err != nil {
				return err
			}
			arts := make([]*zmesh.Compressed, svcFields)
			for f, vals := range ds.values {
				if arts[f], err = enc.CompressValues(ds.names[f], vals, relBound); err != nil {
					return err
				}
			}
			m.encs = append(m.encs, enc)
			m.arts = append(m.arts, arts)
		}
		for _, vals := range ds.values {
			m.raw = append(m.raw, wire.AppendFloats(nil, vals))
		}
		s.meshes = append(s.meshes, m)
	}
	// Warm-up: every (mesh, pipeline, kind) once, so the measured phase finds
	// the server's encoder cache, pools and keep-alive connections filled.
	for mi := range s.meshes {
		for p := range svcCodecs {
			for kind := 0; kind < numOpKinds; kind++ {
				if _, err := s.op(ctx, kind, mi, p, 0); err != nil {
					return fmt.Errorf("warm-up %s: %w", opKindNames[kind], err)
				}
			}
		}
	}
	return nil
}

// op issues one call and verifies the reply; the returned duration covers
// the call alone.
func (s *svc) op(ctx context.Context, kind, mi, p, f int) (time.Duration, error) {
	m := s.meshes[mi]
	opt := pipeline(svcCodecs[p])
	sameBytes := func(got *zmesh.Compressed, f int) error {
		if want := m.arts[p][f]; !bytes.Equal(got.Payload, want.Payload) || got.Layout != want.Layout {
			return fmt.Errorf("%s %s/%s: server artifact differs from the library's", opKindNames[kind], m.ds.names[f], opt.Codec)
		}
		return nil
	}
	t0 := time.Now()
	switch kind {
	case opCompress:
		got, err := s.d.cl.Compress(ctx, m.id, m.ds.names[f], m.ds.values[f], opt, relBound)
		dt := time.Since(t0)
		if err != nil {
			return dt, err
		}
		return dt, sameBytes(got, f)
	case opDecompress:
		recon, err := s.d.cl.Decompress(ctx, m.id, m.arts[p][f])
		dt := time.Since(t0)
		if err != nil {
			return dt, err
		}
		return dt, checkBound("decompress "+m.ds.names[f]+"/"+opt.Codec, m.ds.values[f], recon, relBound)
	case opStream:
		got, err := s.d.cl.CompressStream(ctx, m.id, m.ds.names[f], bytes.NewReader(m.raw[f]), opt, relBound)
		dt := time.Since(t0)
		if err != nil {
			return dt, err
		}
		return dt, sameBytes(got, f)
	default:
		batch := make([]client.BatchField, svcFields)
		for i := range batch {
			batch[i] = client.BatchField{Name: m.ds.names[i], Values: m.ds.values[i]}
		}
		t0 = time.Now()
		got, err := s.d.cl.CompressBatch(ctx, m.id, batch, opt, relBound)
		dt := time.Since(t0)
		if err != nil {
			return dt, err
		}
		if len(got) != svcFields {
			return dt, fmt.Errorf("batch: %d artifacts back, want %d", len(got), svcFields)
		}
		for i, g := range got {
			if err := sameBytes(g, i); err != nil {
				return dt, err
			}
		}
		return dt, nil
	}
}

// run drives the closed-loop clients until the deadline. Each client
// follows its own seeded schedule in whole blocks of ten operations, so the
// 4:3:2:1 mix is exact.
func (s *svc) run(d time.Duration, tr *tracer) error {
	if s.round == 0 {
		s.snap = s.d.srv.Registry().Snapshot()
	}
	s.round++
	ctx := context.Background()
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	var mu sync.Mutex
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.seed*1000 + int64(s.round*64+c)))
			var lat [numOpKinds]samples
			var ops []svcOp
			var raw int64
			for time.Now().Before(deadline) {
				for _, i := range rng.Perm(len(opMix)) {
					kind := opMix[i]
					mi, p, f := rng.Intn(len(s.meshes)), rng.Intn(len(svcCodecs)), rng.Intn(svcFields)
					sp := tr.start("client."+opKindNames[kind], tr.op(), -1)
					dt, err := s.op(ctx, kind, mi, p, f)
					tr.end(sp)
					s.done(err)
					lat[kind].add(dt)
					if kind == opCompress || kind == opDecompress {
						ops = append(ops, svcOp{kind, mi, p, f, float64(dt) / 1e6})
					}
					fields := 1
					if kind == opBatch {
						fields = svcFields
					}
					raw += int64(fields * s.meshes[mi].ds.rawBytes())
				}
			}
			mu.Lock()
			for k := range lat {
				s.lat[k] = append(s.lat[k], lat[k]...)
			}
			s.ops = append(s.ops, ops...)
			s.raw += raw
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	s.wall += time.Since(t0)
	return nil
}

func (s *svc) endToEnd(r *report) {
	all := s.all()
	r.timing("op_p50_ms", all)
	r.set("op_p90_ms", percentile(all, 0.9))
	r.set("ops_per_s", float64(len(all))/s.wall.Seconds())
}

func (s *svc) layers(r *report) {
	all := s.all()
	r.set("client.op_p99_ms", percentile(all, 0.99))
	for k, name := range opKindNames {
		r.timing("client."+name+"_p50_ms", s.lat[k])
	}
	snap := s.d.srv.Registry().Snapshot()
	for _, ep := range []string{"compress", "decompress", "compress_stream", "checkpoint"} {
		r.set("server."+ep+".latency_p50_ms", snap.Timers["server."+ep+".latency"].P50Ns/1e6)
	}
	hits := float64(snap.Counters["server.cache.hits"] - s.snap.Counters["server.cache.hits"])
	misses := float64(snap.Counters["server.cache.misses"] - s.snap.Counters["server.cache.misses"])
	r.set("server.encoder_cache_hit_rate", hits/(hits+misses))
	r.set("server.stage_codec_share", stageCodecShare(s.snap, snap))
}

// stageCodecShare is the codec's share of all pipeline stage time the
// server's encoders and decoders recorded between two registry snapshots.
func stageCodecShare(before, after telemetry.Snapshot) float64 {
	var codec, stages int64
	for name, t := range after.Timers {
		if !strings.HasPrefix(name, "encode.stage.") && !strings.HasPrefix(name, "decode.stage.") {
			continue
		}
		ns := t.TotalNs - before.Timers[name].TotalNs
		stages += ns
		if strings.Contains(name, ".stage.codec.") {
			codec += ns
		}
	}
	return float64(codec) / float64(stages)
}
