package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	zmesh "repro"
	"repro/client"
	"repro/internal/wire"
)

// The TAC layout must flow through the service byte-identically to the
// library: compress on the server, compare against the in-process encoder,
// decompress through both the buffered and chunked-stream endpoints.
func TestServerTACRoundTrip(t *testing.T) {
	m, f := testMesh(t)
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	opt := zmesh.Options{Layout: zmesh.LayoutTAC, Curve: "hilbert", Codec: "sz"}
	got, err := cl.CompressField(ctx, id, f, opt, testBound())
	if err != nil {
		t.Fatal(err)
	}
	if got.Layout != zmesh.LayoutTAC {
		t.Fatalf("artifact layout %v, want tac", got.Layout)
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
		t.Fatalf("server TAC payload differs from library payload (%d vs %d bytes)",
			len(got.Payload), len(want.Payload))
	}
	values, err := cl.Decompress(ctx, id, got)
	if err != nil {
		t.Fatal(err)
	}
	orig := zmesh.FieldValues(f)
	eb := testBound().Absolute(orig)
	for i := range orig {
		if d := orig[i] - values[i]; d > eb || d < -eb {
			t.Fatalf("value %d error %g exceeds bound %g", i, d, eb)
		}
	}
	var sb strings.Builder
	if _, err := cl.DecompressStream(ctx, id, got, &sb); err != nil {
		t.Fatalf("decompress-stream of TAC artifact: %v", err)
	}
}

// LayoutAuto through the service: the response must record the concrete
// layout, match the library's auto encoder byte for byte, and round-trip
// with nothing beyond the recorded metadata.
func TestServerAutoCompress(t *testing.T) {
	m, f := testMesh(t)
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	opt := zmesh.Options{Layout: zmesh.LayoutAuto, Curve: "hilbert", Codec: "sz"}
	got, err := cl.CompressField(ctx, id, f, opt, testBound())
	if err != nil {
		t.Fatal(err)
	}
	if got.Layout == zmesh.LayoutAuto {
		t.Fatal("server response records the pseudo-layout instead of the resolved one")
	}
	enc, err := zmesh.NewEncoder(m, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := enc.CompressField(f, testBound())
	if err != nil {
		t.Fatal(err)
	}
	if got.Layout != want.Layout || !bytes.Equal(got.Payload, want.Payload) {
		t.Fatalf("server auto layout %v differs from library's %v", got.Layout, want.Layout)
	}
	if _, err := cl.Decompress(ctx, id, got); err != nil {
		t.Fatalf("decompress of auto-compressed artifact: %v", err)
	}
}

// A batch has exactly one layout, so checkpoint?layout=auto is accepted: the
// response header names the layout auto resolved to, and every section is
// the static encoder's artifact bit for bit.
func TestServerAutoCheckpoint(t *testing.T) {
	m, f := testMesh(t)
	_, cl := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	values := zmesh.FieldValues(f)
	fields := []client.BatchField{{Name: "dens", Values: values}, {Name: "pres", Values: values}}
	for _, codec := range []string{"sz", "zfp"} {
		resolved := zmesh.ResolveAuto(m.Dims(), codec)
		arts, err := cl.CompressBatch(ctx, id, fields,
			zmesh.Options{Layout: zmesh.LayoutAuto, Curve: "hilbert", Codec: codec}, testBound())
		if err != nil {
			t.Fatalf("%s: checkpoint with layout=auto: %v", codec, err)
		}
		enc, err := zmesh.NewEncoder(m, zmesh.Options{Layout: resolved, Curve: "hilbert", Codec: codec})
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range arts {
			// The client takes the layout from the X-Zmesh-Layout header.
			if a.Layout != resolved {
				t.Fatalf("%s: section %d labelled %v, want %v", codec, i, a.Layout, resolved)
			}
			want, err := enc.CompressValues(fields[i].Name, values, testBound())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Payload, want.Payload) {
				t.Fatalf("%s: section %d differs from the static %v artifact", codec, i, resolved)
			}
			if _, err := cl.Decompress(ctx, id, a); err != nil {
				t.Fatalf("%s: decompress of section %d: %v", codec, i, err)
			}
		}
	}
}

// The decode-side endpoints must reject layout=auto with an explicit 400 —
// an unsupported layout is the client's mistake, never a 500 and never a
// silent fallback to some default order.
func TestServerRejectsAutoOnDecodePaths(t *testing.T) {
	m, _ := testMesh(t)
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+wire.PathMeshes, wire.ContentTypeBinary, bytes.NewReader(m.Structure()))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	id := MeshID(m.Structure())
	for _, path := range []string{
		wire.DecompressPath(id) + "?layout=auto",
		wire.DecompressStreamPath(id) + "?layout=auto",
	} {
		resp, err := http.Post(ts.URL+path, wire.ContentTypeBinary, bytes.NewReader([]byte{1, 2, 3, 4}))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %q)", path, resp.StatusCode, body)
		}
	}
	// An unknown layout name must also be a 400, on encode and decode alike.
	for _, path := range []string{
		wire.CompressPath(id) + "?layout=bogus&bound=abs:1e-3",
		wire.DecompressPath(id) + "?layout=bogus",
	} {
		resp, err := http.Post(ts.URL+path, wire.ContentTypeBinary, bytes.NewReader([]byte{1, 2, 3, 4}))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}
