package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
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
