package server

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	zmesh "repro"
	"repro/internal/compress/container"
	"repro/internal/wire"
)

// Golden wire-format fixtures: a committed HTTP exchange per codec —
// register, compress, decompress request and response bytes — replayed
// against a fresh server and compared bit for bit. They pin the zmeshd
// protocol the same way testdata/golden pins the artifact format: any
// change to the URL grammar, headers, float framing, or the payload
// envelope fails CI until container.Version is bumped (for envelope
// breaks) and the fixtures are regenerated with:
//
//	go test ./internal/server -run TestGoldenWire -update
var updateWire = flag.Bool("update", false, "regenerate golden wire fixtures under testdata/golden/server")

const wireGoldenDir = "../../testdata/golden/server"

// wireFixture is one committed protocol exchange. []byte fields marshal as
// base64.
type wireFixture struct {
	// ContainerVersion pins the payload envelope version; see checkVersion
	// in the root golden tests for the regeneration discipline.
	ContainerVersion int `json:"container_version"`

	// Register: request body (Mesh.Structure bytes) and response JSON.
	Structure    []byte `json:"structure"`
	MeshID       string `json:"mesh_id"`
	RegisterBody []byte `json:"register_body"`

	// Compress: query string, request body (float64-LE values), response
	// payload (container envelope) and metadata headers.
	CompressQuery   string            `json:"compress_query"`
	CompressBody    []byte            `json:"compress_body"`
	CompressPayload []byte            `json:"compress_payload"`
	CompressHeaders map[string]string `json:"compress_headers"`

	// Decompress: query string; request body is CompressPayload, response
	// is the reconstructed float64-LE stream.
	DecompressQuery string `json:"decompress_query"`
	DecompressBody  []byte `json:"decompress_body"`
}

// wireMetaHeaders is the pinned X-Zmesh-* header set of compress responses.
var wireMetaHeaders = []string{
	wire.HeaderField, wire.HeaderLayout, wire.HeaderCurve, wire.HeaderCodec, wire.HeaderNumValues,
}

// post issues one request against the handler and fails on any non-status
// surprise.
func post(t *testing.T, h http.Handler, path string, body []byte, wantStatus int) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", wire.ContentTypeBinary)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != wantStatus {
		t.Fatalf("POST %s: status %d (body %q), want %d", path, rec.Code, rec.Body.String(), wantStatus)
	}
	return rec
}

func compressQuery(layout zmesh.Layout, codec string) string {
	return url.Values{
		wire.ParamField:  {"dens"},
		wire.ParamLayout: {layout.String()},
		wire.ParamCurve:  {"hilbert"},
		wire.ParamCodec:  {codec},
		wire.ParamBound:  {wire.FormatBound(testBound())},
	}.Encode()
}

func decompressQuery(layout zmesh.Layout) string {
	return url.Values{
		wire.ParamField:  {"dens"},
		wire.ParamLayout: {layout.String()},
		wire.ParamCurve:  {"hilbert"},
	}.Encode()
}

// recordExchange runs the canonical register→compress→decompress exchange
// for one layout/codec pair against a fresh server and captures every byte
// on the wire.
func recordExchange(t *testing.T, layout zmesh.Layout, codec string) *wireFixture {
	t.Helper()
	s := New(Config{})
	m, f := testMesh(t)
	fx := &wireFixture{
		ContainerVersion: container.Version,
		Structure:        m.Structure(),
		CompressQuery:    compressQuery(layout, codec),
		CompressBody:     wire.AppendFloats(nil, zmesh.FieldValues(f)),
		DecompressQuery:  decompressQuery(layout),
	}

	rec := post(t, s.Handler(), wire.PathMeshes, fx.Structure, http.StatusCreated)
	fx.RegisterBody = rec.Body.Bytes()
	var reg wire.RegisterResponse
	if err := json.Unmarshal(fx.RegisterBody, &reg); err != nil {
		t.Fatal(err)
	}
	fx.MeshID = reg.MeshID

	rec = post(t, s.Handler(), wire.CompressPath(fx.MeshID)+"?"+fx.CompressQuery, fx.CompressBody, http.StatusOK)
	fx.CompressPayload = rec.Body.Bytes()
	fx.CompressHeaders = map[string]string{}
	for _, h := range wireMetaHeaders {
		fx.CompressHeaders[h] = rec.Header().Get(h)
	}

	rec = post(t, s.Handler(), wire.DecompressPath(fx.MeshID)+"?"+fx.DecompressQuery, fx.CompressPayload, http.StatusOK)
	fx.DecompressBody = rec.Body.Bytes()
	return fx
}

// TestGoldenWire replays each codec's committed exchange against a fresh
// server and requires the responses byte-identical to the fixtures.
func TestGoldenWire(t *testing.T) {
	for _, codec := range zmesh.Codecs() {
		if strings.HasPrefix(codec, "test-") {
			continue // test-registered stubs (alloc_test.go) are not protocol codecs
		}
		codec := codec
		t.Run(codec, func(t *testing.T) {
			goldenWireCase(t, filepath.Join(wireGoldenDir, codec+".json"), zmesh.LayoutZMesh, codec)
		})
	}
}

// TestGoldenWireTAC pins the exchange for the TAC box layout: the zTAC
// frame rides inside the same container envelope, so this fixture holds the
// frame format itself to the golden discipline, not just the envelope.
func TestGoldenWireTAC(t *testing.T) {
	goldenWireCase(t, filepath.Join(wireGoldenDir, "tac_sz.json"), zmesh.LayoutTAC, "sz")
}

func goldenWireCase(t *testing.T, name string, layout zmesh.Layout, codec string) {
	if *updateWire {
		fx := recordExchange(t, layout, codec)
		buf, err := json.MarshalIndent(fx, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(wireGoldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", name)
		return
	}
	buf, err := os.ReadFile(name)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test ./internal/server -run TestGoldenWire -update`)", err)
	}
	var fx wireFixture
	if err := json.Unmarshal(buf, &fx); err != nil {
		t.Fatalf("parsing %s: %v", name, err)
	}
	if fx.ContainerVersion != container.Version {
		t.Fatalf("%s: fixture written with container version %d, code is at version %d.\n"+
			"The envelope format changed: regenerate with `go test ./internal/server -run TestGoldenWire -update`.",
			name, fx.ContainerVersion, container.Version)
	}
	if !container.IsContainer(fx.CompressPayload) {
		t.Fatalf("%s: committed payload is not a container envelope", name)
	}

	s := New(Config{})
	rec := post(t, s.Handler(), wire.PathMeshes, fx.Structure, http.StatusCreated)
	if !bytes.Equal(rec.Body.Bytes(), fx.RegisterBody) {
		t.Fatalf("register response drifted:\n got %s\nwant %s", rec.Body.Bytes(), fx.RegisterBody)
	}

	rec = post(t, s.Handler(), wire.CompressPath(fx.MeshID)+"?"+fx.CompressQuery, fx.CompressBody, http.StatusOK)
	for _, h := range wireMetaHeaders {
		if got := rec.Header().Get(h); got != fx.CompressHeaders[h] {
			t.Errorf("compress header %s = %q, fixture pins %q", h, got, fx.CompressHeaders[h])
		}
	}
	if !bytes.Equal(rec.Body.Bytes(), fx.CompressPayload) {
		t.Fatalf("compress payload drifted (%d bytes, fixture %d).\n"+
			"The wire or artifact format changed. If intentional, bump container.Version\n"+
			"and regenerate with `go test ./internal/server -run TestGoldenWire -update`.",
			rec.Body.Len(), len(fx.CompressPayload))
	}

	// The committed payload (not the one just produced) must still
	// decompress to the committed bits: old artifacts stay readable.
	rec = post(t, s.Handler(), wire.DecompressPath(fx.MeshID)+"?"+fx.DecompressQuery, fx.CompressPayload, http.StatusOK)
	if !bytes.Equal(rec.Body.Bytes(), fx.DecompressBody) {
		t.Fatalf("decompress output drifted (%d bytes, fixture %d)", rec.Body.Len(), len(fx.DecompressBody))
	}
}

// TestWireErrorShapes pins the protocol's error conventions: JSON bodies,
// conventional status codes.
func TestWireErrorShapes(t *testing.T) {
	s := New(Config{})
	m, f := testMesh(t)
	post(t, s.Handler(), wire.PathMeshes, m.Structure(), http.StatusCreated)
	id := MeshID(m.Structure())
	// A real codec payload stripped of its envelope: refused at the magic.
	enc, err := zmesh.NewEncoder(m, zmesh.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	c, err := enc.CompressField(f, testBound())
	if err != nil {
		t.Fatal(err)
	}
	env, err := container.Unwrap(c.Payload)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, path string
		body       []byte
		status     int
		msg        string // when set, the error text must contain it
	}{
		{"empty structure", wire.PathMeshes, nil, http.StatusBadRequest, ""},
		{"unknown mesh", wire.CompressPath("deadbeef") + "?" + compressQuery(zmesh.LayoutZMesh, "sz"), nil, http.StatusNotFound, ""},
		{"missing bound", wire.CompressPath(id) + "?field=dens", []byte{0, 0, 0, 0, 0, 0, 0, 0}, http.StatusBadRequest, ""},
		{"bad bound", wire.CompressPath(id) + "?bound=abs:-1", []byte{0, 0, 0, 0, 0, 0, 0, 0}, http.StatusBadRequest, ""},
		{"unknown codec", wire.CompressPath(id) + "?codec=nope&bound=abs:1e-3", nil, http.StatusBadRequest, ""},
		{"retired codec mgl", wire.CompressPath(id) + "?codec=mgl&bound=abs:1e-3", []byte{0, 0, 0, 0, 0, 0, 0, 0}, http.StatusBadRequest, "unknown codec"},
		{"ragged floats", wire.CompressPath(id) + "?bound=abs:1e-3", []byte{1, 2, 3}, http.StatusBadRequest, ""},
		{"empty payload", wire.DecompressPath(id), nil, http.StatusBadRequest, ""},
		{"garbage payload", wire.DecompressPath(id), []byte("not a container"), http.StatusBadRequest, ""},
		{"bare codec payload", wire.DecompressPath(id), env.Payload, http.StatusBadRequest, "missing magic"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, s.Handler(), tc.path, tc.body, tc.status)
			var er wire.ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("error body %q is not a JSON ErrorResponse", rec.Body.String())
			}
			if ct := rec.Header().Get("Content-Type"); ct != wire.ContentTypeJSON {
				t.Fatalf("error Content-Type = %q, want %q", ct, wire.ContentTypeJSON)
			}
			if !strings.Contains(er.Error, tc.msg) {
				t.Fatalf("error %q does not mention %q", er.Error, tc.msg)
			}
		})
	}
}
