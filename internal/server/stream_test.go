package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	zmesh "repro"
	"repro/client"
	"repro/internal/wire"
)

// testCheckpoint wraps testMesh's topology with several sampled fields, the
// batch endpoint's natural input.
func testCheckpoint(t testing.TB) (*zmesh.Mesh, *zmesh.Checkpoint) {
	t.Helper()
	m, _ := testMesh(t)
	fns := map[string]func(x, y, z float64) float64{
		"dens": func(x, y, z float64) float64 { return math.Sin(5*x) * math.Cos(4*y) },
		"pres": func(x, y, z float64) float64 { return math.Exp(-x*x - y*y) },
		"velx": func(x, y, z float64) float64 { return x - y },
		"ener": func(x, y, z float64) float64 { return 1 + 0.5*x*y },
	}
	ck := &zmesh.Checkpoint{Problem: "test", Mesh: m}
	for _, name := range []string{"dens", "pres", "velx", "ener"} {
		ck.Fields = append(ck.Fields, zmesh.SampleField(m, name, fns[name]))
	}
	return m, ck
}

// TestStreamRoundTripAllCodecs is the streaming acceptance criterion: a
// field pushed through compress-stream in tiny chunks — so the body is
// strictly larger than the server's chunk-ring budget — must produce an
// artifact byte-identical to the pure-library path, and decompress-stream
// must reproduce the values bit for bit.
func TestStreamRoundTripAllCodecs(t *testing.T) {
	m, f := testMesh(t)
	const chunkBytes = 512
	ts := httptest.NewServer(New(Config{}).Handler())
	t.Cleanup(ts.Close)
	cl := client.New(ts.URL,
		client.WithBackoff(time.Millisecond, 50*time.Millisecond),
		client.WithMaxRetries(20),
		client.WithChunkBytes(chunkBytes))
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	values := zmesh.FieldValues(f)
	if 8*len(values) <= ringSlots*chunkBytes {
		t.Fatalf("test field (%d bytes) does not exceed the ring budget (%d); the bounded-buffer claim is untested",
			8*len(values), ringSlots*chunkBytes)
	}
	for _, codec := range zmesh.Codecs() {
		if strings.HasPrefix(codec, "test-") {
			continue
		}
		codec := codec
		t.Run(codec, func(t *testing.T) {
			opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: codec}
			got, err := cl.CompressStream(ctx, id, "dens", bytes.NewReader(wire.AppendFloats(nil, values)), opt, testBound())
			if err != nil {
				t.Fatal(err)
			}
			enc, err := zmesh.NewEncoder(m, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := enc.CompressField(f, testBound())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("streamed payload differs from library payload (%d vs %d bytes)", len(got.Payload), len(want.Payload))
			}
			if got.NumValues != want.NumValues || got.Codec != want.Codec {
				t.Fatalf("artifact metadata differs: %+v vs %+v", got, want)
			}
			var out bytes.Buffer
			n, err := cl.DecompressStream(ctx, id, got, &out)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(values) {
				t.Fatalf("DecompressStream returned %d values, want %d", n, len(values))
			}
			roundTripped, err := wire.DecodeFloats(out.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			libField, err := zmesh.NewDecoder(m).DecompressField(want)
			if err != nil {
				t.Fatal(err)
			}
			libValues := zmesh.FieldValues(libField)
			for i := range libValues {
				if math.Float64bits(roundTripped[i]) != math.Float64bits(libValues[i]) {
					t.Fatalf("value %d: streamed %x, library %x", i,
						math.Float64bits(roundTripped[i]), math.Float64bits(libValues[i]))
				}
			}
		})
	}
}

// TestCompressChunkedBoundedBuffers asserts the tentpole's memory claim
// directly on the handler core: streaming a body through compressChunked
// must never materialize the byte-side body — sc.body stays untouched and
// the ring's total capacity stays within slots × chunk size — while still
// producing the exact library artifact.
func TestCompressChunkedBoundedBuffers(t *testing.T) {
	m, f := testMesh(t)
	values := zmesh.FieldValues(f)
	enc, err := zmesh.NewEncoder(m, zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"})
	if err != nil {
		t.Fatal(err)
	}
	nCells := m.NumBlocks() * m.CellsPerBlock()
	const chunkBytes = 1 << 10
	body := wire.AppendChunked(nil, wire.AppendFloats(nil, values), chunkBytes)
	if len(body) <= ringSlots*chunkBytes {
		t.Fatalf("chunked body (%d bytes) does not exceed the ring budget", len(body))
	}
	sc := new(requestScratch)
	ring := new(chunkRing)
	c, err := compressChunked(enc, "dens", nCells, bytes.NewReader(body), testBound(), sc, ring)
	if err != nil {
		t.Fatal(err)
	}
	want, err := enc.CompressValues("dens", values, testBound())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(c.Payload, want.Payload) {
		t.Fatal("chunked compression diverges from buffered compression")
	}
	if cap(sc.body) != 0 {
		t.Fatalf("compress-stream materialized %d bytes of byte-side body; the chunked path must not", cap(sc.body))
	}
	if got, budget := ring.pinnedBytes(), ringSlots*chunkBytes; got > budget {
		t.Fatalf("ring grew to %d bytes, budget %d: per-request chunk memory is unbounded", got, budget)
	}
	if cap(sc.values) < nCells {
		t.Fatal("value buffer was not adopted back into the scratch")
	}
}

// TestCheckpointSingleRecipeBuild pins the batch amortization criterion:
// compressing all N fields of a checkpoint through one request must build
// exactly one recipe, and every artifact must match the library bit for
// bit.
func TestCheckpointSingleRecipeBuild(t *testing.T) {
	m, ck := testCheckpoint(t)
	s, cl := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	builds := s.Registry().Counter("recipe.builds")
	before := builds.Load()
	opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"}
	arts, err := cl.CompressCheckpoint(ctx, id, ck, opt, testBound())
	if err != nil {
		t.Fatal(err)
	}
	if got := builds.Load() - before; got != 1 {
		t.Fatalf("checkpoint of %d fields built %d recipes, want exactly 1", len(ck.Fields), got)
	}
	if got := s.Registry().Counter("server.checkpoint.fields").Load(); got != int64(len(ck.Fields)) {
		t.Fatalf("server.checkpoint.fields = %d, want %d", got, len(ck.Fields))
	}
	if len(arts) != len(ck.Fields) {
		t.Fatalf("got %d artifacts, want %d", len(arts), len(ck.Fields))
	}
	enc, err := zmesh.NewEncoder(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range ck.Fields {
		want, err := enc.CompressField(f, testBound())
		if err != nil {
			t.Fatal(err)
		}
		if arts[i].FieldName != f.Name {
			t.Fatalf("artifact %d named %q, want %q", i, arts[i].FieldName, f.Name)
		}
		if !bytes.Equal(arts[i].Payload, want.Payload) {
			t.Fatalf("field %q: batch payload differs from library payload", f.Name)
		}
		if arts[i].NumValues != want.NumValues {
			t.Fatalf("field %q: NumValues %d, want %d", f.Name, arts[i].NumValues, want.NumValues)
		}
		// The batch artifact must decompress through the ordinary endpoint.
		values, err := cl.Decompress(ctx, id, arts[i])
		if err != nil {
			t.Fatalf("field %q: decompressing batch artifact: %v", f.Name, err)
		}
		if len(values) != want.NumValues {
			t.Fatalf("field %q: decompressed %d values, want %d", f.Name, len(values), want.NumValues)
		}
	}
	// A second checkpoint against the same pipeline is fully amortized. (The
	// decompress loop above built the decoder's restore recipe, so compare
	// against the count after it, not the compress-side baseline.)
	afterDecompress := builds.Load()
	if _, err := cl.CompressCheckpoint(ctx, id, ck, opt, testBound()); err != nil {
		t.Fatal(err)
	}
	if got := builds.Load(); got != afterDecompress {
		t.Fatalf("second checkpoint rebuilt the recipe (%d → %d builds)", afterDecompress, got)
	}
}

// TestCheckpointPerFieldBounds: each section's meta bound overrides the
// query default, and a batch with neither fails with 400.
func TestCheckpointPerFieldBounds(t *testing.T) {
	m, ck := testCheckpoint(t)
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"}
	loose := zmesh.AbsBound(1e-1)
	tight := zmesh.AbsBound(1e-6)
	fields := []client.BatchField{
		{Name: "dens", Values: zmesh.FieldValues(ck.Fields[0])},
	}
	looseArts, err := cl.CompressBatch(ctx, id, fields, opt, loose)
	if err != nil {
		t.Fatal(err)
	}
	tightArts, err := cl.CompressBatch(ctx, id, fields, opt, tight)
	if err != nil {
		t.Fatal(err)
	}
	if len(looseArts[0].Payload) >= len(tightArts[0].Payload) {
		t.Fatalf("loose bound payload (%d bytes) not smaller than tight bound payload (%d): per-batch bound ignored?",
			len(looseArts[0].Payload), len(tightArts[0].Payload))
	}
}

// streamQuery renders the compress-stream query grammar.
func streamQuery(codec, bound string) string {
	v := url.Values{
		wire.ParamField:  {"dens"},
		wire.ParamLayout: {zmesh.LayoutZMesh.String()},
		wire.ParamCurve:  {"hilbert"},
		wire.ParamCodec:  {codec},
	}
	if bound != "" {
		v.Set(wire.ParamBound, bound)
	}
	return v.Encode()
}

// postRaw issues one request with an explicit content type, without
// asserting the status.
func postRaw(t *testing.T, h http.Handler, path, contentType string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestStreamErrorShapes pins the streaming endpoints' pre-commit error
// conventions: failures before the first response byte are ordinary JSON
// errors with conventional status codes — including 404 (not 500) for a
// mesh that the cache evicted.
func TestStreamErrorShapes(t *testing.T) {
	s := New(Config{})
	m, f := testMesh(t)
	post(t, s.Handler(), wire.PathMeshes, m.Structure(), http.StatusCreated)
	id := MeshID(m.Structure())
	okBody := wire.AppendChunked(nil, wire.AppendFloats(nil, zmesh.FieldValues(f)), 0)
	short := wire.AppendChunked(nil, wire.AppendFloats(nil, []float64{1, 2, 3}), 0)

	cases := []struct {
		name, path  string
		contentType string
		body        []byte
		status      int
	}{
		{"unknown mesh", wire.CompressStreamPath("deadbeef") + "?" + streamQuery("sz", "abs:1e-3"), wire.ContentTypeChunked, okBody, http.StatusNotFound},
		{"missing bound", wire.CompressStreamPath(id) + "?" + streamQuery("sz", ""), wire.ContentTypeChunked, okBody, http.StatusBadRequest},
		{"bad magic", wire.CompressStreamPath(id) + "?" + streamQuery("sz", "abs:1e-3"), wire.ContentTypeChunked, []byte("XXXX????"), http.StatusBadRequest},
		{"truncated stream", wire.CompressStreamPath(id) + "?" + streamQuery("sz", "abs:1e-3"), wire.ContentTypeChunked, okBody[:len(okBody)-8], http.StatusBadRequest},
		{"wrong cell count", wire.CompressStreamPath(id) + "?" + streamQuery("sz", "abs:1e-3"), wire.ContentTypeChunked, short, http.StatusBadRequest},
		{"unknown codec", wire.CompressStreamPath(id) + "?" + streamQuery("nope", "abs:1e-3"), wire.ContentTypeChunked, okBody, http.StatusBadRequest},
		{"retired codec mgl", wire.CompressStreamPath(id) + "?" + streamQuery("mgl", "abs:1e-3"), wire.ContentTypeChunked, okBody, http.StatusBadRequest},
		{"checkpoint retired codec mgl", wire.CheckpointPath(id) + "?codec=mgl&bound=abs:1e-3", wire.ContentTypeBatch, batchBody(t, [][2]string{{"dens", ""}}), http.StatusBadRequest},
		{"decompress empty", wire.DecompressStreamPath(id), wire.ContentTypeChunked, wire.AppendChunked(nil, nil, 0), http.StatusBadRequest},
		{"checkpoint empty batch", wire.CheckpointPath(id) + "?bound=abs:1e-3", wire.ContentTypeBatch, batchBody(t, nil), http.StatusBadRequest},
		{"checkpoint no bound", wire.CheckpointPath(id), wire.ContentTypeBatch, batchBody(t, [][2]string{{"dens", ""}}), http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postRaw(t, s.Handler(), tc.path, tc.contentType, tc.body)
			if rec.Code != tc.status {
				t.Fatalf("status %d (body %q), want %d", rec.Code, rec.Body.String(), tc.status)
			}
			if ct := rec.Header().Get("Content-Type"); ct != wire.ContentTypeJSON {
				t.Fatalf("error Content-Type = %q, want %q", ct, wire.ContentTypeJSON)
			}
		})
	}
}

// batchBody builds a batch request whose sections carry tiny (wrong-sized)
// payloads — enough for error-shape tests that never reach the codec.
func batchBody(t *testing.T, sections [][2]string) []byte {
	t.Helper()
	var b bytes.Buffer
	bw := wire.NewBatchWriter(&b)
	for _, s := range sections {
		if err := bw.WriteSection(s[0], s[1], wire.AppendFloats(nil, []float64{1})); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestCheckpointSectionErrorIsClean pins the mid-batch failure contract:
// because the response is buffered until the whole request has compressed,
// a failure in a later section surfaces as an ordinary JSON 400 — no
// partial batch body ever reaches the client.
func TestCheckpointSectionErrorIsClean(t *testing.T) {
	s := New(Config{})
	m, f := testMesh(t)
	post(t, s.Handler(), wire.PathMeshes, m.Structure(), http.StatusCreated)
	id := MeshID(m.Structure())

	var b bytes.Buffer
	bw := wire.NewBatchWriter(&b)
	good := wire.AppendFloats(nil, zmesh.FieldValues(f))
	if err := bw.WriteSection("dens", "abs:1e-3", good); err != nil {
		t.Fatal(err)
	}
	// Second section: malformed bound, rejected only after section one has
	// already been compressed.
	if err := bw.WriteSection("pres", "abs:not-a-number", good); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	errsBefore := s.Registry().Counter("server.checkpoint.errors").Load()
	rec := postRaw(t, s.Handler(), wire.CheckpointPath(id)+"?"+streamQuery("sz", ""), wire.ContentTypeBatch, b.Bytes())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d (body %q), want 400", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentTypeJSON {
		t.Fatalf("Content-Type %q, want JSON (no partial batch body)", ct)
	}
	var er wire.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "pres") {
		t.Fatalf("error body %q does not name the failing section", rec.Body.String())
	}
	if got := s.Registry().Counter("server.checkpoint.errors").Load(); got != errsBefore+1 {
		t.Fatalf("failed checkpoint not counted as an error (%d → %d)", errsBefore, got)
	}
}

// TestStreamEndpointMetrics: the new endpoints account requests and
// latency like the buffered ones.
func TestStreamEndpointMetrics(t *testing.T) {
	m, ck := testCheckpoint(t)
	s, cl := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"}
	values := zmesh.FieldValues(ck.Fields[0])
	c, err := cl.CompressStream(ctx, id, "dens", bytes.NewReader(wire.AppendFloats(nil, values)), opt, testBound())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.DecompressStream(ctx, id, c, io.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CompressCheckpoint(ctx, id, ck, opt, testBound()); err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	for _, name := range []string{
		"server.compress_stream.requests", "server.decompress_stream.requests", "server.checkpoint.requests",
	} {
		if reg.Counter(name).Load() == 0 {
			t.Fatalf("%s = 0 after a streamed round trip", name)
		}
	}
	for _, name := range []string{
		"server.compress_stream.latency", "server.decompress_stream.latency", "server.checkpoint.latency",
	} {
		if reg.Timer(name).TotalNs() == 0 {
			t.Fatalf("%s recorded no time", name)
		}
	}
}
