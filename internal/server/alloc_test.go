package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"testing"

	zmesh "repro"
	"repro/internal/compress"
	"repro/internal/sim"
	"repro/internal/wire"
)

// stubCodec is a zero-allocation stand-in codec for the steady-state
// allocation pins: Compress and Decompress return cached slices, so every
// allocation the pins observe belongs to the server pipeline itself, not to
// a real codec's internals. Registered as "test-stub"; the protocol-facing
// codec loops (TestGoldenWire, TestClientServerRoundTrip) skip "test-"
// names.
type stubCodec struct {
	payload []byte
	values  []float64
}

func (c *stubCodec) Name() string { return "test-stub" }
func (c *stubCodec) Compress(data []float64, dims []int, bound compress.Bound) ([]byte, error) {
	return c.payload, nil
}
func (c *stubCodec) Decompress(buf []byte) ([]float64, error) { return c.values, nil }

var theStub = &stubCodec{payload: []byte("stub-payload")}

func init() {
	compress.Register("test-stub", func() compress.Compressor { return theStub })
}

// TestServerStreamAllocs pins the steady-state allocation count of the
// pooled request cores. The budget is 8 allocations per request; with the
// stub codec the compress path costs only the container envelope and the
// artifact struct, and the decompress path only the envelope parse — the
// permutation, decode, and scratch stages all reuse pooled buffers.
func TestServerStreamAllocs(t *testing.T) {
	m, f := testMesh(t)
	values := zmesh.FieldValues(f)
	theStub.values = make([]float64, len(values))
	copy(theStub.values, values)

	opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "test-stub"}
	enc, err := zmesh.NewEncoder(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	body := wire.AppendFloats(nil, values)
	bound := testBound()
	sc := new(requestScratch)
	nCells := m.NumBlocks() * m.CellsPerBlock()

	// Warm the scratch, and keep one artifact for the decompress pin.
	artifact, err := compressStream(enc, "dens", nCells, body, bound, sc)
	if err != nil {
		t.Fatal(err)
	}
	const budget = 8
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := compressStream(enc, "dens", nCells, body, bound, sc); err != nil {
			t.Fatal(err)
		}
	}); allocs > budget {
		t.Fatalf("steady-state compress allocates %v per request, budget %d", allocs, budget)
	}

	dec := zmesh.NewDecoder(m)
	sc.artifact = zmesh.Compressed{Layout: opt.Layout, Curve: opt.Curve, Payload: artifact.Payload}
	if _, err := dec.DecompressValuesScratch(&sc.artifact, &sc.zs); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := dec.DecompressValuesScratch(&sc.artifact, &sc.zs); err != nil {
			t.Fatal(err)
		}
	}); allocs > budget {
		t.Fatalf("steady-state decompress allocates %v per request, budget %d", allocs, budget)
	}
}

// TestServerExchangeAllocs pins the steady-state heap-allocation count of
// one full compress + decompress exchange through the handler with the real
// sz codec and warm caches (105 when pinned, on the golden ratio table's
// sedov density field). Machine speed does not move it; losing the scratch
// pool or the zero-copy views shows up as a jump of hundreds.
func TestServerExchangeAllocs(t *testing.T) {
	checkExchangeAllocs(t, "sz", zmesh.LayoutZMesh, 105)
}

// TestServerExchangeAllocsZFP pins the same exchange under zfp with
// ?layout=auto, which resolves to tac, so every zTAC box is one zfp call
// (187 when pinned).
func TestServerExchangeAllocsZFP(t *testing.T) {
	checkExchangeAllocs(t, "zfp", zmesh.LayoutAuto, 187)
}

// checkExchangeAllocs measures one compress + decompress exchange of the
// sedov density field with the given codec and layout against its pinned
// count. The slack (25 % + 8) absorbs GC emptying the pools mid-measure,
// nothing more.
func checkExchangeAllocs(t *testing.T, codec string, layout zmesh.Layout, pinned float64) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	ck, err := sim.GenerateCheckpoint("sedov", sim.CheckpointOptions{
		Resolution: 64, TScale: 1, BlockSize: 8, RootDims: [3]int{2, 2, 1}, MaxDepth: 3, Threshold: 0.35,
	})
	if err != nil {
		t.Fatal(err)
	}
	dens, ok := ck.Field("dens")
	if !ok {
		t.Fatal("dens missing from the sedov checkpoint")
	}
	h := New(Config{}).Handler()
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", wire.ContentTypeBinary)
		rw := httptest.NewRecorder()
		h.ServeHTTP(rw, req)
		if rw.Code/100 != 2 {
			t.Fatalf("POST %s: status %d (%s)", path, rw.Code, rw.Body.String())
		}
		return rw
	}
	structure := ck.Mesh.Structure()
	post(wire.PathMeshes, structure)
	id := MeshID(structure)
	resolved := layout
	if layout == zmesh.LayoutAuto {
		resolved = zmesh.ResolveAuto(ck.Mesh.Dims(), codec)
	}
	pipeline := url.Values{
		wire.ParamField:  {"dens"},
		wire.ParamLayout: {resolved.String()},
		wire.ParamCurve:  {"hilbert"},
	}
	decompressPath := wire.DecompressPath(id) + "?" + pipeline.Encode()
	pipeline.Set(wire.ParamLayout, layout.String())
	pipeline.Set(wire.ParamCodec, codec)
	pipeline.Set(wire.ParamBound, wire.FormatBound(zmesh.RelBound(1e-4)))
	compressPath := wire.CompressPath(id) + "?" + pipeline.Encode()
	body := wire.AppendFloats(nil, zmesh.FieldValues(dens))

	budget := pinned*1.25 + 8
	allocs := testing.AllocsPerRun(30, func() {
		post(decompressPath, post(compressPath, body).Body.Bytes())
	})
	t.Logf("%s/%s compress + decompress exchange: %v allocs/op", codec, resolved, allocs)
	if allocs > budget {
		t.Fatalf("%s/%s compress + decompress exchange allocates %v per op, budget %v", codec, resolved, allocs, budget)
	}
}

// TestServerReaderFedAllocs pins the heap bytes of one warm reader-fed
// CompressStream of an 8 MiB field (2-D, 1 Mi cells, sz/zmesh/hilbert),
// client and server together in one process. The body has no known
// length, so it arrives under chunked Transfer-Encoding, and the server
// reads it straight into the pooled request buffer it sized once to the
// mesh's 8 × cells bytes. Measured 2.1 MiB per warm request, about what the
// server's handler alone costs: the artifact comes back with a
// Content-Length, which the client reads into one exact buffer (DESIGN.md
// "Compress transport"). The test
// runs on one P: a sync.Pool Put lands in the running P's private slot,
// which a Get on another P cannot take, so with two Ps a request that
// happens to run on the other one rebuilds its scratch. A GC can still empty
// the pools between requests, so the pin takes the median of seven warm
// requests.
func TestServerReaderFedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m, err := zmesh.NewMesh(2, 16, [3]int{32, 32, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range m.Roots()[:768] {
		if err := m.Refine(root); err != nil {
			t.Fatal(err)
		}
	}
	f := zmesh.SampleField(m, "dens", func(x, y, z float64) float64 { return math.Sin(9*x)*math.Cos(7*y) + 0.1*x*y })
	raw := wire.AppendFloats(nil, zmesh.FieldValues(f))
	if len(raw) != 8<<20 {
		t.Fatalf("field is %d bytes, want 8 MiB", len(raw))
	}
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"}
	var warm []float64
	for i := 0; i < 9; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := cl.CompressStream(ctx, id, "dens", io.MultiReader(bytes.NewReader(raw)), opt, zmesh.RelBound(1e-4)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if i >= 2 {
			warm = append(warm, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
		}
	}
	sort.Float64s(warm)
	const pinnedMiB = 2.1
	budget := pinnedMiB*1.25 + 1
	t.Logf("warm reader-fed 8 MiB compress: %.1f MiB per request (median of %v)", warm[len(warm)/2], warm)
	if got := warm[len(warm)/2]; got > budget {
		t.Fatalf("warm reader-fed 8 MiB compress allocates %.1f MiB per request, budget %.1f", got, budget)
	}
}

// TestCompressStreamMisaligned pins the fallback path: a misaligned body
// must decode through the copying path and produce the same artifact.
func TestCompressStreamMisaligned(t *testing.T) {
	m, f := testMesh(t)
	values := zmesh.FieldValues(f)
	enc, err := zmesh.NewEncoder(m, zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"})
	if err != nil {
		t.Fatal(err)
	}
	nCells := m.NumBlocks() * m.CellsPerBlock()
	bound := testBound()
	aligned := wire.AppendFloats(nil, values)

	// Rebuild the body at every offset of an oversized buffer; exactly one
	// offset (whichever is 8-aligned) takes the view path, the rest copy.
	backing := make([]byte, len(aligned)+8)
	for off := 0; off < 8; off++ {
		body := backing[off : off+len(aligned)]
		copy(body, aligned)
		c, err := compressStream(enc, "dens", nCells, body, bound, new(requestScratch))
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		want, err := enc.CompressValues("dens", values, bound)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%x", c.Payload) != fmt.Sprintf("%x", want.Payload) {
			t.Fatalf("offset %d: payload diverges from aligned compression", off)
		}
	}
}

// TestCheckpointReadAllocs pins the heap bytes and allocation count of one
// warm checkpoint read of a 1.7 MB field (2-D, 212 992 cells, sz/zmesh/
// hilbert) at its fourth snapshot, so the read replays a keyframe and three
// deltas; client and server together in one process, on one P for the reason
// TestServerReaderFedAllocs gives. What a read must allocate is the four
// decoded frames and the client's one response buffer: the frames advance the
// layout-order reconstruction, the one restore lands in the pooled request
// scratch, and the sized body is read into one exact buffer. Measured 10.55
// MiB and 209 allocations for a full read, 9.05 MiB and 212 for a one-level
// prefix (DESIGN.md "Temporal checkpoint store"); the pins are the medians of
// seven warm reads, with 25 % slack for a GC emptying the pools.
func TestCheckpointReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	m, err := zmesh.NewMesh(2, 16, [3]int{16, 16, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range m.Roots()[:192] {
		if err := m.Refine(root); err != nil {
			t.Fatal(err)
		}
	}
	_, cl := newTestServer(t, temporalConfig(t))
	ctx := context.Background()
	sess, err := cl.NewTemporalSession(ctx, temporalOptions())
	if err != nil {
		t.Fatal(err)
	}
	const snaps = 4
	for si := 0; si < snaps; si++ {
		if _, err := sess.Append(ctx, snapField(m, "dens", 0.2*float64(si)), zmesh.RelBound(1e-4)); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := sess.Seal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name              string
		pinnedMiB, allocs float64
		read              func() error
	}{
		{"full", 10.55, 209, func() error {
			_, err := cl.ReadField(ctx, ckpt, "dens", snaps-1)
			return err
		}},
		{"levels", 9.05, 212, func() error {
			_, err := cl.ReadFieldLevels(ctx, ckpt, "dens", snaps-1, 1)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mib, allocs []float64
			for i := 0; i < 9; i++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := tc.read(); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if i >= 2 {
					mib = append(mib, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
					allocs = append(allocs, float64(after.Mallocs-before.Mallocs))
				}
			}
			sort.Float64s(mib)
			sort.Float64s(allocs)
			gotMiB, gotAllocs := mib[len(mib)/2], allocs[len(allocs)/2]
			t.Logf("warm %s read: %.2f MiB, %v allocs (medians of %v and %v)", tc.name, gotMiB, gotAllocs, mib, allocs)
			if budget := tc.pinnedMiB * 1.25; gotMiB > budget {
				t.Errorf("warm %s read allocates %.2f MiB, budget %.2f", tc.name, gotMiB, budget)
			}
			if budget := tc.allocs * 1.25; gotAllocs > budget {
				t.Errorf("warm %s read makes %v allocations, budget %v", tc.name, gotAllocs, budget)
			}
		})
	}
}
