package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	zmesh "repro"
	"repro/client"
	"repro/internal/compress"
	"repro/internal/compress/multilevel"
	"repro/internal/wire"
)

// Temporal subsystem tests: session lifecycle, eviction/restart recovery,
// the distinct error contract (404 / 409 / 412), exactly-once appends, the
// wire-path validate-first-commit-last guarantee under codec fault
// injection, and persistence across a simulated daemon restart.

// temporalConfig is the baseline store-enabled server config.
func temporalConfig(t testing.TB) Config {
	t.Helper()
	return Config{StoreDir: t.TempDir()}
}

func temporalOptions() zmesh.Options {
	return zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"}
}

// snapField samples one evolving quantity on m: phase advances the solution
// so successive snapshots are temporally correlated (delta-friendly) but not
// identical.
func snapField(m *zmesh.Mesh, name string, phase float64) *zmesh.Field {
	return zmesh.SampleField(m, name, func(x, y, z float64) float64 {
		return math.Sin(5*x+phase)*math.Cos(4*y-0.3*phase) + 0.1*x*y
	})
}

// mirrorDecoders tracks the client-side expectation: every accepted frame is
// replayed through a local TemporalDecoder per field, giving the bit-exact
// reconstruction the server's reads must reproduce.
type mirrorDecoders map[string]*zmesh.TemporalDecoder

func (md mirrorDecoders) apply(t testing.TB, field string, frame *zmesh.TemporalCompressed) []float64 {
	t.Helper()
	dec := md[field]
	if dec == nil {
		dec = zmesh.NewTemporalDecoder()
		md[field] = dec
	}
	f, err := dec.DecompressSnapshot(frame)
	if err != nil {
		t.Fatalf("mirror decode %s: %v", field, err)
	}
	return append([]float64(nil), zmesh.FieldValues(f)...)
}

// TestTemporalLifecycle streams a 3-snapshot, 2-quantity run through a
// temporal session, seals it, and verifies every read surface: the JSON
// summary, bit-exact full reads of every snapshot, the structure read, the
// coarse level-prefix read, and the tiered read with its strictly-decreasing
// guaranteed bounds.
func TestTemporalLifecycle(t *testing.T) {
	m2, _ := testMesh(t)
	m3, err := zmesh.NewMesh(3, 8, [3]int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m3.Refine(m3.Roots()[0]); err != nil {
		t.Fatal(err)
	}
	// tac is what ResolveAuto names for every 3-D mesh, and sessions take no
	// "auto": it is the layout a 3-D user types.
	tac := zmesh.Options{Layout: zmesh.LayoutTAC, Curve: "hilbert", Codec: "sz"}
	t.Run("2d-zmesh", func(t *testing.T) { temporalLifecycle(t, m2, temporalOptions()) })
	t.Run("3d-tac", func(t *testing.T) { temporalLifecycle(t, m3, tac) })
}

func temporalLifecycle(t *testing.T, m *zmesh.Mesh, opt zmesh.Options) {
	_, cl := newTestServer(t, temporalConfig(t))
	ctx := context.Background()

	sess, err := cl.NewTemporalSession(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	const snaps = 3
	fields := []string{"dens", "pres"}
	mirror := mirrorDecoders{}
	want := map[string][][]float64{} // field -> snap -> values

	for si := 0; si < snaps; si++ {
		for _, name := range fields {
			f := snapField(m, name, 0.2*float64(si))
			res, err := sess.Append(ctx, f, zmesh.AbsBound(1e-3))
			if err != nil {
				t.Fatalf("append %s snap %d: %v", name, si, err)
			}
			if res.Recovered {
				t.Fatalf("append %s snap %d: unexpected recovery", name, si)
			}
			if res.FrameIndex != si {
				t.Fatalf("append %s snap %d: frame index %d", name, si, res.FrameIndex)
			}
			if (si == 0) != res.Keyframe {
				t.Fatalf("append %s snap %d: keyframe=%v (topology is static)", name, si, res.Keyframe)
			}
			if res.Keyframe {
				// A session keyframe is the artifact any Decoder reads.
				if _, err := zmesh.NewDecoder(m).DecompressField(&res.Frame.Compressed); err != nil {
					t.Fatalf("keyframe %s through a plain Decoder: %v", name, err)
				}
			}
			recon := mirror.apply(t, name, res.Frame)
			for i, v := range zmesh.FieldValues(f) {
				if math.Abs(recon[i]-v) > 1e-3 {
					t.Fatalf("%s snap %d: value %d off by %g, bound 1e-3", name, si, i, math.Abs(recon[i]-v))
				}
			}
			want[name] = append(want[name], recon)
		}
	}
	ckpt, err := sess.Seal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Seal(ctx); !errors.Is(err, client.ErrSessionSealed) {
		t.Fatalf("second seal: %v, want ErrSessionSealed", err)
	}

	info, err := cl.CheckpointInfo(ctx, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Fields) != len(fields) {
		t.Fatalf("checkpoint has %d fields, want %d", len(info.Fields), len(fields))
	}
	for i, fi := range info.Fields {
		if fi.Name != fields[i] {
			t.Fatalf("field %d is %q, want %q (manifest must keep stream order)", i, fi.Name, fields[i])
		}
		if fi.Snapshots != snaps || fi.Keyframes != 1 {
			t.Fatalf("field %q: %d snapshots / %d keyframes, want %d / 1", fi.Name, fi.Snapshots, fi.Keyframes, snaps)
		}
		if fi.Layout != opt.Layout.String() || fi.Curve != opt.Curve || fi.Codec != opt.Codec {
			t.Fatalf("field %q identity %s/%s/%s", fi.Name, fi.Layout, fi.Curve, fi.Codec)
		}
	}

	// Full reads: every snapshot of every field, bit-exact vs the mirror.
	for _, name := range fields {
		for si := 0; si < snaps; si++ {
			got, err := cl.ReadField(ctx, ckpt, name, si)
			if err != nil {
				t.Fatalf("read %s snap %d: %v", name, si, err)
			}
			assertBitExact(t, fmt.Sprintf("%s snap %d", name, si), got, want[name][si])
		}
		// snap < 0 defaults to the last snapshot.
		got, err := cl.ReadField(ctx, ckpt, name, -1)
		if err != nil {
			t.Fatal(err)
		}
		assertBitExact(t, name+" default snap", got, want[name][snaps-1])
	}

	// Structure read rebuilds the exact topology.
	structure, err := cl.CheckpointStructure(ctx, ckpt, "dens", -1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(structure, m.Structure()) {
		t.Fatal("checkpoint structure differs from the source mesh structure")
	}

	// Level-prefix read: the prefix must equal the full read's head, and
	// reconstructing it must reproduce the delivered levels exactly.
	full := want["dens"][snaps-1]
	dec, err := zmesh.NewDecoderFromStructure(structure)
	if err != nil {
		t.Fatal(err)
	}
	mesh := dec.Mesh()
	for k := 1; k <= mesh.MaxLevel()+1; k++ {
		ld, err := cl.ReadFieldLevels(ctx, ckpt, "dens", -1, k)
		if err != nil {
			t.Fatalf("levels=%d: %v", k, err)
		}
		if ld.Levels != k || ld.MeshLevels != mesh.MaxLevel()+1 || ld.Snapshot != snaps-1 || ld.Snapshots != snaps {
			t.Fatalf("levels=%d: headers %+v", k, ld)
		}
		n, err := zmesh.LevelPrefixCells(mesh, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(ld.Values) != n {
			t.Fatalf("levels=%d: %d values, want %d", k, len(ld.Values), n)
		}
		assertBitExact(t, fmt.Sprintf("levels=%d prefix", k), ld.Values, full[:n])
		if _, err := zmesh.ReconstructPartialLevels(mesh, "dens", ld.Values, k); err != nil {
			t.Fatalf("levels=%d: reconstruct: %v", k, err)
		}
	}

	// Tiered read: bounds strictly decrease and every bound is honored by the
	// reconstruction of its prefix.
	td, err := cl.ReadFieldTiers(ctx, ckpt, "dens", -1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(td.Tiers) != 3 {
		t.Fatalf("got %d tiers, want 3", len(td.Tiers))
	}
	for i := 1; i < len(td.Bounds); i++ {
		if !(td.Bounds[i] < td.Bounds[i-1]) {
			t.Fatalf("tier bounds not strictly decreasing: %v", td.Bounds)
		}
	}
	for k := 1; k <= len(td.Tiers); k++ {
		prefix, err := multilevel.New().DecompressProgressive(td.Tiers[:k])
		if err != nil {
			t.Fatalf("decoding %d-tier prefix: %v", k, err)
		}
		maxErr := 0.0
		for i := range prefix {
			if d := math.Abs(prefix[i] - full[i]); d > maxErr {
				maxErr = d
			}
		}
		if maxErr > td.Bounds[k-1]+1e-12 {
			t.Fatalf("tier prefix %d: max error %g exceeds guaranteed bound %g", k, maxErr, td.Bounds[k-1])
		}
	}
}

// bitsEqual reports whether two streams are bit-identical.
func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func assertBitExact(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: value %d: %x != %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// restartableServer serves a swappable *Server behind one stable URL, so a
// "daemon restart" (all sessions lost, store directory kept) can happen
// without the client noticing an address change.
type restartableServer struct {
	cur atomic.Pointer[Server]
	ts  *httptest.Server
	cfg Config
}

func newRestartableServer(t testing.TB, cfg Config) *restartableServer {
	t.Helper()
	rs := &restartableServer{cfg: cfg}
	rs.cur.Store(New(cfg))
	rs.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rs.cur.Load().Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(rs.ts.Close)
	return rs
}

// restart replaces the running server with a fresh one over the same store
// directory — exactly what a SIGTERM + re-exec does to session state.
func (rs *restartableServer) restart() { rs.cur.Store(New(rs.cfg)) }

// TestReadReplaysFromLastKeyframe streams a run whose topology changes half
// way (keyframes at snapshots 0 and 3) and requires every read to be
// bit-exact while fetching only the frames from the governing keyframe on: a
// keyframe resets all decoder state, so nothing before it can matter.
func TestReadReplaysFromLastKeyframe(t *testing.T) {
	coarse, _ := testMesh(t)
	fine, _ := testMesh(t)
	if err := fine.Refine(fine.Roots()[1]); err != nil {
		t.Fatal(err)
	}
	s, cl := newTestServer(t, temporalConfig(t))
	ctx := context.Background()
	sess, err := cl.NewTemporalSession(ctx, temporalOptions())
	if err != nil {
		t.Fatal(err)
	}
	const snaps, regrid = 6, 3
	mirror := mirrorDecoders{}
	var want [][]float64
	for si := 0; si < snaps; si++ {
		m := coarse
		if si >= regrid {
			m = fine
		}
		res, err := sess.Append(ctx, snapField(m, "dens", 0.2*float64(si)), zmesh.AbsBound(1e-3))
		if err != nil {
			t.Fatalf("append snap %d: %v", si, err)
		}
		if res.Keyframe != (si == 0 || si == regrid) {
			t.Fatalf("append snap %d: keyframe=%v", si, res.Keyframe)
		}
		want = append(want, mirror.apply(t, "dens", res.Frame))
	}
	ckpt, err := sess.Seal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gets := s.Registry().Counter("server.store.object_gets")
	for si := range want {
		before := gets.Load()
		got, err := cl.ReadField(ctx, ckpt, "dens", si)
		if err != nil {
			t.Fatalf("read snap %d: %v", si, err)
		}
		assertBitExact(t, fmt.Sprintf("snap %d", si), got, want[si])
		if fetched, need := gets.Load()-before, int64(si%regrid+1); fetched != need {
			t.Errorf("read of snap %d fetched %d frame objects, want %d (from its keyframe on)", si, fetched, need)
		}
	}
	// The progressive shapes replay through the same path.
	before := gets.Load()
	if _, err := cl.ReadFieldLevels(ctx, ckpt, "dens", snaps-1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFieldTiers(ctx, ckpt, "dens", snaps-1, 2); err != nil {
		t.Fatal(err)
	}
	if fetched := gets.Load() - before; fetched != 2*(snaps-regrid) {
		t.Errorf("levels + tiers reads of the last snap fetched %d frame objects, want %d", fetched, 2*(snaps-regrid))
	}
}

// TestCheckpointReadsShareRecipes: session keyframes and checkpoint reads
// take their Decoder from the mesh LRU, so a structure's recipe is built once
// — by the first keyframe on it — and every later append and every read on it,
// whatever the checkpoint, field, snapshot or shape, reuses it. The parent of
// this design gave each session stream and each read a fresh, uninstrumented
// Decoder: it recorded 0 builds here while rebuilding a recipe per keyframe
// and per read, which only a profile of the read path shows.
func TestCheckpointReadsShareRecipes(t *testing.T) {
	coarse, _ := testMesh(t)
	fine, _ := testMesh(t)
	if err := fine.Refine(fine.Roots()[1]); err != nil {
		t.Fatal(err)
	}
	s, cl := newTestServer(t, temporalConfig(t))
	ctx := context.Background()
	const sessions, snaps, regrid, tiers = 2, 4, 2, 4
	fields := []string{"dens", "pres"}
	type stream struct {
		ckpt, field string
		want        [][]float64 // snapshot -> mirror reconstruction
	}
	var streams []stream
	for si := 0; si < sessions; si++ {
		sess, err := cl.NewTemporalSession(ctx, temporalOptions())
		if err != nil {
			t.Fatal(err)
		}
		mirror := mirrorDecoders{}
		want := map[string][][]float64{}
		for snap := 0; snap < snaps; snap++ {
			m := coarse
			if snap >= regrid {
				m = fine
			}
			for _, name := range fields {
				f := snapField(m, name, 0.2*float64(snap)+float64(si))
				res, err := sess.Append(ctx, f, zmesh.AbsBound(1e-3))
				if err != nil {
					t.Fatalf("session %d: append %s snap %d: %v", si, name, snap, err)
				}
				if res.Keyframe != (snap == 0 || snap == regrid) {
					t.Fatalf("session %d: append %s snap %d: keyframe=%v", si, name, snap, res.Keyframe)
				}
				want[name] = append(want[name], mirror.apply(t, name, res.Frame))
			}
		}
		ckpt, err := sess.Seal(ctx)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range fields {
			streams = append(streams, stream{ckpt, name, want[name]})
		}
	}
	builds := s.Registry().Counter("recipe.builds")
	if got := builds.Load(); got != 2 {
		t.Fatalf("recipe.builds = %d after the appends, want 2 (one per structure)", got)
	}
	// Every frame a read replays decodes on its mesh's registered Decoder,
	// whose stage timers count it.
	decodes := func() int64 { return s.Registry().Snapshot().Timers["decode.stage.unwrap"].Count }
	decodes0 := decodes()

	levels, err := zmesh.LevelPrefixCells(coarse, 2)
	if err != nil {
		t.Fatal(err)
	}
	fineLevels, err := zmesh.LevelPrefixCells(fine, 2)
	if err != nil {
		t.Fatal(err)
	}
	tierBounds := make([]float64, tiers)
	for i, b := 0, 0.1; i < tiers; i, b = i+1, b/10 {
		tierBounds[i] = b
	}
	// read checks the three shapes of one snapshot against the mirror.
	read := func(st stream, snap, prefix int) error {
		want := st.want[snap]
		what := fmt.Sprintf("%s/%s snap %d", st.ckpt[:8], st.field, snap)
		got, err := cl.ReadField(ctx, st.ckpt, st.field, snap)
		if err != nil {
			return fmt.Errorf("%s full: %w", what, err)
		}
		if !bitsEqual(got, want) {
			return fmt.Errorf("%s full read differs from the mirror", what)
		}
		ld, err := cl.ReadFieldLevels(ctx, st.ckpt, st.field, snap, 2)
		if err != nil {
			return fmt.Errorf("%s levels: %w", what, err)
		}
		if !bitsEqual(ld.Values, want[:prefix]) {
			return fmt.Errorf("%s levels=2 read differs from the mirror's prefix", what)
		}
		td, err := cl.ReadFieldTiers(ctx, st.ckpt, st.field, snap, tiers)
		if err != nil {
			return fmt.Errorf("%s tiers: %w", what, err)
		}
		wantTiers, err := multilevel.New().CompressProgressive(want, []int{len(want)}, compress.Rel, tierBounds)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(td.Tiers, wantTiers) {
			return fmt.Errorf("%s tiers=%d read differs from the mirror's tiers", what, tiers)
		}
		return nil
	}
	const readers = 4
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, st := range streams {
				// The last snapshot before the regrid and the last one:
				// both structures, each from its own keyframe.
				if err := read(st, regrid-1, levels); err != nil {
					errs <- err
					return
				}
				if err := read(st, snaps-1, fineLevels); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := builds.Load(); got != 2 {
		t.Fatalf("recipe.builds = %d after the reads, want 2: a read rebuilt a recipe", got)
	}
	// Each read replays two frames (a keyframe and one delta) per shape.
	if got, want := decodes()-decodes0, int64(readers*len(streams)*2*3*2); got != want {
		t.Fatalf("reads decoded %d frames on registered Decoders, want %d", got, want)
	}
}

// TestCheckpointSurvivesRestart seals a run, restarts the daemon over the
// same store directory, and requires every read to stay bit-exact.
func TestCheckpointSurvivesRestart(t *testing.T) {
	m, _ := testMesh(t)
	rs := newRestartableServer(t, temporalConfig(t))
	cl := client.New(rs.ts.URL, client.WithBackoff(time.Millisecond, 50*time.Millisecond))
	ctx := context.Background()

	sess, err := cl.NewTemporalSession(ctx, temporalOptions())
	if err != nil {
		t.Fatal(err)
	}
	mirror := mirrorDecoders{}
	var want [][]float64
	for si := 0; si < 3; si++ {
		res, err := sess.Append(ctx, snapField(m, "dens", 0.2*float64(si)), zmesh.AbsBound(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, mirror.apply(t, "dens", res.Frame))
	}
	ckpt, err := sess.Seal(ctx)
	if err != nil {
		t.Fatal(err)
	}

	rs.restart()

	for si := range want {
		got, err := cl.ReadField(ctx, ckpt, "dens", si)
		if err != nil {
			t.Fatalf("post-restart read snap %d: %v", si, err)
		}
		assertBitExact(t, fmt.Sprintf("post-restart snap %d", si), got, want[si])
	}
	info, err := cl.CheckpointInfo(ctx, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Fields) != 1 || info.Fields[0].Snapshots != 3 {
		t.Fatalf("post-restart summary: %+v", info)
	}
}

// TestTemporalRecovery is the eviction/recovery table: however the server
// loses session state (idle TTL, capacity pressure, daemon restart), the
// client's next append must transparently re-establish it with a forced
// keyframe, and the run sealed afterwards must replay bit-exactly — the
// recovery path may lose unsealed history but can never corrupt what it
// keeps.
func TestTemporalRecovery(t *testing.T) {
	cases := []struct {
		name string
		cfg  func(t *testing.T) Config
		// evict drops the client's session server-side between snapshots.
		evict func(t *testing.T, rs *restartableServer, cl *client.Client)
	}{
		{
			name: "ttl-eviction",
			cfg: func(t *testing.T) Config {
				c := temporalConfig(t)
				c.SessionTTL = time.Minute
				return c
			},
			evict: func(t *testing.T, rs *restartableServer, cl *client.Client) {
				// Age the registry clock past the TTL; the next lookup sweeps.
				s := rs.cur.Load()
				s.sessions.now = func() time.Time { return time.Now().Add(2 * time.Minute) }
			},
		},
		{
			name: "capacity-eviction",
			cfg: func(t *testing.T) Config {
				c := temporalConfig(t)
				c.MaxSessions = 1
				return c
			},
			evict: func(t *testing.T, rs *restartableServer, cl *client.Client) {
				// A second attaching run evicts the oldest session.
				if _, err := cl.NewTemporalSession(context.Background(), temporalOptions()); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "daemon-restart",
			cfg:  func(t *testing.T) Config { return temporalConfig(t) },
			evict: func(t *testing.T, rs *restartableServer, cl *client.Client) {
				rs.restart()
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := testMesh(t)
			rs := newRestartableServer(t, tc.cfg(t))
			cl := client.New(rs.ts.URL, client.WithBackoff(time.Millisecond, 50*time.Millisecond))
			ctx := context.Background()

			sess, err := cl.NewTemporalSession(ctx, temporalOptions())
			if err != nil {
				t.Fatal(err)
			}
			oldID := sess.ID()
			// Snapshot 0 lands in the doomed session; it is lost with it
			// (never sealed), which is the documented soft-state contract.
			if _, err := sess.Append(ctx, snapField(m, "dens", 0), zmesh.AbsBound(1e-3)); err != nil {
				t.Fatal(err)
			}

			tc.evict(t, rs, cl)

			mirror := mirrorDecoders{}
			var want [][]float64
			res, err := sess.Append(ctx, snapField(m, "dens", 0.2), zmesh.AbsBound(1e-3))
			if err != nil {
				t.Fatalf("append after %s: %v", tc.name, err)
			}
			if !res.Recovered {
				t.Fatalf("append after %s did not report recovery", tc.name)
			}
			if !res.Keyframe || !res.Forced {
				t.Fatalf("recovery frame keyframe=%v forced=%v, want forced keyframe", res.Keyframe, res.Forced)
			}
			if res.FrameIndex != 0 {
				t.Fatalf("recovery frame index %d, want 0 (fresh stream)", res.FrameIndex)
			}
			if sess.ID() == oldID {
				t.Fatal("recovery kept the evicted session id")
			}
			want = append(want, mirror.apply(t, "dens", res.Frame))

			// The run continues with plain deltas.
			res, err = sess.Append(ctx, snapField(m, "dens", 0.4), zmesh.AbsBound(1e-3))
			if err != nil {
				t.Fatal(err)
			}
			if res.Recovered || res.Keyframe {
				t.Fatalf("post-recovery append recovered=%v keyframe=%v, want plain delta", res.Recovered, res.Keyframe)
			}
			want = append(want, mirror.apply(t, "dens", res.Frame))

			ckpt, err := sess.Seal(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for si := range want {
				got, err := cl.ReadField(ctx, ckpt, "dens", si)
				if err != nil {
					t.Fatalf("read snap %d: %v", si, err)
				}
				assertBitExact(t, fmt.Sprintf("%s snap %d", tc.name, si), got, want[si])
			}
		})
	}
}

// rawFrames encodes a short keyframe+delta sequence for the raw-HTTP tests.
func rawFrames(t testing.TB, m *zmesh.Mesh, field string, n int) [][]byte {
	t.Helper()
	enc, err := zmesh.NewTemporalEncoder(temporalOptions())
	if err != nil {
		t.Fatal(err)
	}
	frames := make([][]byte, n)
	for i := range frames {
		tc, err := enc.CompressSnapshot(snapField(m, field, 0.2*float64(i)), zmesh.AbsBound(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		frames[i], err = wire.EncodeTemporalFrame(tc.WireFrame(false))
		if err != nil {
			t.Fatal(err)
		}
	}
	return frames
}

// postFrame is a raw, retry-free frame POST; it returns status and body.
func postFrame(t testing.TB, base, sid, field string, seq int, frame []byte) (int, string) {
	t.Helper()
	url := base + wire.SessionFramesPath(sid, field)
	if seq >= 0 {
		url += "?" + wire.ParamSeq + "=" + strconv.Itoa(seq)
	}
	resp, err := http.Post(url, wire.ContentTypeTemporal, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func createRawSession(t testing.TB, base string) string {
	t.Helper()
	resp, err := http.Post(base+wire.PathSessions, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: status %d", resp.StatusCode)
	}
	var sr wire.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr.SessionID
}

// TestTemporalDistinctErrors pins the error contract recovery keys off:
// unknown session (404), dangling delta (409), sequence divergence (412),
// and the 503 of a daemon started without -store. Each failure mode must be
// distinguishable by status code alone.
func TestTemporalDistinctErrors(t *testing.T) {
	m, _ := testMesh(t)
	frames := rawFrames(t, m, "dens", 2)

	t.Run("store-disabled", func(t *testing.T) {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+wire.PathSessions, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("session create without store: %d, want 503", resp.StatusCode)
		}
		resp, err = http.Get(ts.URL + wire.CheckpointInfoPath("0123"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("checkpoint read without store: %d, want 503", resp.StatusCode)
		}
	})

	s := New(temporalConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	t.Run("unknown-session", func(t *testing.T) {
		code, body := postFrame(t, ts.URL, "deadbeef", "dens", 0, frames[0])
		if code != http.StatusNotFound || !strings.Contains(body, "unknown or evicted") {
			t.Fatalf("status %d body %q, want 404 unknown-or-evicted", code, body)
		}
	})
	t.Run("dangling-delta", func(t *testing.T) {
		sid := createRawSession(t, ts.URL)
		code, body := postFrame(t, ts.URL, sid, "dens", 0, frames[1]) // delta first
		if code != http.StatusConflict || !strings.Contains(body, "before any keyframe") {
			t.Fatalf("status %d body %q, want 409 dangling-delta", code, body)
		}
		// The stream is not wedged: the keyframe recovers it.
		if code, body := postFrame(t, ts.URL, sid, "dens", 0, frames[0]); code != http.StatusOK {
			t.Fatalf("keyframe after dangling delta: %d %q", code, body)
		}
	})
	t.Run("seq-divergence", func(t *testing.T) {
		sid := createRawSession(t, ts.URL)
		if code, body := postFrame(t, ts.URL, sid, "dens", 0, frames[0]); code != http.StatusOK {
			t.Fatalf("keyframe: %d %q", code, body)
		}
		// A frame claiming a future (or stale, different-bytes) sequence is
		// refused without touching the stream.
		code, body := postFrame(t, ts.URL, sid, "dens", 5, frames[1])
		if code != http.StatusPreconditionFailed || !strings.Contains(body, "resync required") {
			t.Fatalf("status %d body %q, want 412 resync-required", code, body)
		}
		code, body = postFrame(t, ts.URL, sid, "dens", 0, frames[1])
		if code != http.StatusPreconditionFailed {
			t.Fatalf("stale seq with different bytes: %d %q, want 412", code, body)
		}
		// The correct sequence still lands.
		if code, body := postFrame(t, ts.URL, sid, "dens", 1, frames[1]); code != http.StatusOK {
			t.Fatalf("in-order delta after divergence attempts: %d %q", code, body)
		}
	})
	t.Run("field-mismatch", func(t *testing.T) {
		sid := createRawSession(t, ts.URL)
		code, body := postFrame(t, ts.URL, sid, "pres", 0, frames[0])
		if code != http.StatusBadRequest || !strings.Contains(body, "posted to stream") {
			t.Fatalf("status %d body %q, want 400 field-mismatch", code, body)
		}
	})
	t.Run("seal-empty", func(t *testing.T) {
		sid := createRawSession(t, ts.URL)
		resp, err := http.Post(ts.URL+wire.SessionSealPath(sid), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("sealing empty session: %d, want 400", resp.StatusCode)
		}
	})
}

// TestTemporalIdempotentReplay pins the exactly-once contract: re-posting
// the stream's final frame (lost response, client retry) is acknowledged
// again without growing the stream, while different bytes at the same stale
// sequence are refused.
func TestTemporalIdempotentReplay(t *testing.T) {
	m, _ := testMesh(t)
	frames := rawFrames(t, m, "dens", 2)
	s := New(temporalConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	sid := createRawSession(t, ts.URL)
	code, body := postFrame(t, ts.URL, sid, "dens", 0, frames[0])
	if code != http.StatusOK {
		t.Fatalf("keyframe: %d %q", code, body)
	}
	var first wire.FrameResponse
	if err := json.Unmarshal([]byte(body), &first); err != nil {
		t.Fatal(err)
	}

	// Retry of the same bytes at the previous sequence: replayed ack.
	code, body = postFrame(t, ts.URL, sid, "dens", 0, frames[0])
	if code != http.StatusOK {
		t.Fatalf("idempotent replay: %d %q", code, body)
	}
	var replay wire.FrameResponse
	if err := json.Unmarshal([]byte(body), &replay); err != nil {
		t.Fatal(err)
	}
	if replay != first {
		t.Fatalf("replay response %+v differs from original %+v", replay, first)
	}

	// The stream did not grow: the next frame still lands at index 1.
	code, body = postFrame(t, ts.URL, sid, "dens", 1, frames[1])
	if code != http.StatusOK {
		t.Fatalf("delta after replay: %d %q", code, body)
	}
	var next wire.FrameResponse
	if err := json.Unmarshal([]byte(body), &next); err != nil {
		t.Fatal(err)
	}
	if next.FrameIndex != 1 {
		t.Fatalf("frame after replay landed at index %d, want 1", next.FrameIndex)
	}
}

// wireFlakyCodec extends the temporal fault-injection pattern to the wire
// path: Compress always works (the client encodes fine) but Decompress fails
// while armed, so the failure fires inside the server's validating decoder.
type wireFlakyCodec struct {
	inner compress.Compressor
	fail  *atomic.Bool
}

var wireFlakyFail atomic.Bool

func init() {
	compress.Register("test-flaky-wire", func() compress.Compressor {
		inner, err := compress.Get("sz")
		if err != nil {
			panic(err)
		}
		return &wireFlakyCodec{inner: inner, fail: &wireFlakyFail}
	})
}

func (c *wireFlakyCodec) Name() string { return "test-flaky-wire" }
func (c *wireFlakyCodec) Compress(data []float64, dims []int, b compress.Bound) ([]byte, error) {
	return c.inner.Compress(data, dims, b)
}
func (c *wireFlakyCodec) Decompress(buf []byte) ([]float64, error) {
	if c.fail.Load() {
		return nil, errors.New("injected wire-path codec failure")
	}
	return c.inner.Decompress(buf)
}

// TestTemporalWireFaultInjection drives the server's validate-first-
// commit-last contract: a frame whose decode fails (transient codec fault)
// must be rejected with 400 while leaving the stream exactly where it was —
// the same frame retried at the same sequence is then accepted, and the
// sealed checkpoint replays bit-exactly as if the fault never happened.
func TestTemporalWireFaultInjection(t *testing.T) {
	m, _ := testMesh(t)
	opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "test-flaky-wire"}
	enc, err := zmesh.NewTemporalEncoder(opt)
	if err != nil {
		t.Fatal(err)
	}
	wireFlakyFail.Store(false)
	defer wireFlakyFail.Store(false)

	s := New(temporalConfig(t))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	sid := createRawSession(t, ts.URL)

	mirror := zmesh.NewTemporalDecoder()
	var want [][]float64
	for si := 0; si < 3; si++ {
		tc, err := enc.CompressSnapshot(snapField(m, "dens", 0.2*float64(si)), zmesh.AbsBound(1e-3))
		if err != nil {
			t.Fatal(err)
		}
		frame, err := wire.EncodeTemporalFrame(tc.WireFrame(false))
		if err != nil {
			t.Fatal(err)
		}
		if si == 1 {
			// Fault the server-side decode of the mid-stream delta.
			wireFlakyFail.Store(true)
			code, body := postFrame(t, ts.URL, sid, "dens", si, frame)
			if code != http.StatusBadRequest || !strings.Contains(body, "frame rejected") {
				t.Fatalf("faulted frame: %d %q, want 400 frame-rejected", code, body)
			}
			wireFlakyFail.Store(false)
		}
		// The same frame at the same sequence lands once the fault clears:
		// the rejected attempt committed nothing.
		code, body := postFrame(t, ts.URL, sid, "dens", si, frame)
		if code != http.StatusOK {
			t.Fatalf("frame %d: %d %q", si, code, body)
		}
		var fr wire.FrameResponse
		if err := json.Unmarshal([]byte(body), &fr); err != nil {
			t.Fatal(err)
		}
		if fr.FrameIndex != si {
			t.Fatalf("frame %d landed at index %d (stream advanced on a rejected frame)", si, fr.FrameIndex)
		}
		f, err := mirror.DecompressSnapshot(tc)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, append([]float64(nil), zmesh.FieldValues(f)...))
	}

	resp, err := http.Post(ts.URL+wire.SessionSealPath(sid), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var seal wire.SealResponse
	if err := json.NewDecoder(resp.Body).Decode(&seal); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if seal.Frames != 3 {
		t.Fatalf("sealed %d frames, want 3", seal.Frames)
	}

	cl := client.New(ts.URL, client.WithBackoff(time.Millisecond, 50*time.Millisecond))
	for si := range want {
		got, err := cl.ReadField(context.Background(), seal.CheckpointID, "dens", si)
		if err != nil {
			t.Fatalf("read snap %d: %v", si, err)
		}
		assertBitExact(t, fmt.Sprintf("snap %d", si), got, want[si])
	}
}
