package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	zmesh "repro"
	"repro/internal/wire"
)

// TestMaxBodyBytes413 pins the request-size cap: an over-limit body must
// yield 413 with the standard JSON error shape — both when the client
// declares Content-Length (rejected before the body is read or any decode
// buffer is sized) and when it streams chunked (stopped by the
// MaxBytesReader at the cap, or for compress by the mesh's size before any
// byte is read). A 400 here would mislead clients into
// retrying the same oversized request.
func TestMaxBodyBytes413(t *testing.T) {
	m, _ := testMesh(t)
	structure := m.Structure()
	limit := int64(len(structure) + 512)
	s := New(Config{MaxBodyBytes: limit})
	post(t, s.Handler(), wire.PathMeshes, structure, http.StatusCreated)
	id := MeshID(structure)

	oversized := make([]byte, limit+8)
	paths := map[string]string{
		"compress":   wire.CompressPath(id) + "?bound=abs:1e-3",
		"decompress": wire.DecompressPath(id),
		"register":   wire.PathMeshes,
	}
	for name, path := range paths {
		t.Run(name+"/content-length", func(t *testing.T) {
			// bytes.Reader bodies carry Content-Length, so the pre-read check fires.
			rec := post(t, s.Handler(), path, oversized, http.StatusRequestEntityTooLarge)
			assertJSONError(t, rec)
		})
		t.Run(name+"/chunked", func(t *testing.T) {
			// A bare io.Reader leaves ContentLength unset; the cap must still
			// hold via the MaxBytesReader installed around the body.
			req := httptest.NewRequest(http.MethodPost, path, io.MultiReader(bytes.NewReader(oversized)))
			req.Header.Set("Content-Type", wire.ContentTypeBinary)
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("chunked oversize body: status %d (body %q), want 413", rec.Code, rec.Body.String())
			}
			assertJSONError(t, rec)
		})
	}

	// An in-limit request on the same server still succeeds: the cap must
	// not leak into the accept path.
	rec := post(t, s.Handler(), wire.PathMeshes, structure, http.StatusOK)
	_ = rec
}

func assertJSONError(t *testing.T, rec *httptest.ResponseRecorder) {
	t.Helper()
	var er wire.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
		t.Fatalf("error body %q is not a JSON ErrorResponse", rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != wire.ContentTypeJSON {
		t.Fatalf("error Content-Type = %q, want %q", ct, wire.ContentTypeJSON)
	}
}

// readFails is a request body whose Read fails the test: the handler must
// answer from the declared length alone.
type readFails struct{ t *testing.T }

func (r readFails) Read([]byte) (int, error) {
	r.t.Error("the body was read despite a wrong Content-Length")
	return 0, io.EOF
}

// TestCompressBodyExactSize pins the compress body rule: the body is exactly
// the registered mesh's cells × 8 bytes. A declared Content-Length that is
// one value short or one byte long answers 400 before the body is read; a
// chunked Transfer-Encoding body one byte short or long answers 400 once
// read; an exact chunked body compresses to the library's bytes; and a mesh
// whose values exceed MaxBodyBytes answers 413 whatever the body.
func TestCompressBodyExactSize(t *testing.T) {
	m, f := testMesh(t)
	values := zmesh.FieldValues(f)
	raw := wire.AppendFloats(nil, values)
	structure := m.Structure()
	id := MeshID(structure)
	query := "?" + streamQuery("sz", wire.FormatBound(testBound()))

	s := New(Config{})
	post(t, s.Handler(), wire.PathMeshes, structure, http.StatusCreated)
	for name, n := range map[string]int64{"one value short": int64(len(raw) - 8), "one byte long": int64(len(raw) + 1)} {
		t.Run("content-length/"+name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, wire.CompressPath(id)+query, readFails{t})
			req.ContentLength = n
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("status %d (body %q), want 400", rec.Code, rec.Body.String())
			}
			assertJSONError(t, rec)
		})
	}

	var teChunked atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		teChunked.Store(r.ContentLength == -1 && len(r.TransferEncoding) == 1 && r.TransferEncoding[0] == "chunked")
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	chunked := func(t *testing.T, body []byte) *http.Response {
		t.Helper()
		// MultiReader hides the length, so the transport sends chunked
		// Transfer-Encoding.
		req, err := http.NewRequest(http.MethodPost, ts.URL+wire.CompressPath(id)+query, io.MultiReader(bytes.NewReader(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		if !teChunked.Load() {
			t.Fatal("the request did not arrive with chunked Transfer-Encoding")
		}
		return resp
	}
	for name, body := range map[string][]byte{"one byte short": raw[:len(raw)-1], "one byte long": append(append([]byte(nil), raw...), 0)} {
		t.Run("chunked/"+name, func(t *testing.T) {
			if resp := chunked(t, body); resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
		})
	}
	t.Run("chunked/exact", func(t *testing.T) {
		resp := chunked(t, raw)
		got, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, err %v (body %q)", resp.StatusCode, err, got)
		}
		enc, err := zmesh.NewEncoder(m, zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"})
		if err != nil {
			t.Fatal(err)
		}
		want, err := enc.CompressValues("dens", values, testBound())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Payload) {
			t.Fatal("compressing a chunked body diverges from the library")
		}
	})

	// One byte under the mesh's size: 413 before a byte is read, with or
	// without a declared length; at exactly the size the request passes.
	small := New(Config{MaxBodyBytes: int64(len(raw) - 1)})
	post(t, small.Handler(), wire.PathMeshes, structure, http.StatusCreated)
	for name, length := range map[string]int64{"content-length": int64(len(raw)), "chunked": -1} {
		t.Run("over-max/"+name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, wire.CompressPath(id)+query, readFails{t})
			req.ContentLength = length
			rec := httptest.NewRecorder()
			small.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("status %d (body %q), want 413", rec.Code, rec.Body.String())
			}
			assertJSONError(t, rec)
		})
	}
	exact := New(Config{MaxBodyBytes: int64(len(raw))})
	post(t, exact.Handler(), wire.PathMeshes, structure, http.StatusCreated)
	post(t, exact.Handler(), wire.CompressPath(id)+query, raw, http.StatusOK)
}
