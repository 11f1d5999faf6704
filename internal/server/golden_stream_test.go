package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	zmesh "repro"
	"repro/internal/compress/container"
	"repro/internal/wire"
)

// Golden fixtures for the batch checkpoint endpoint: one committed exchange
// per codec. They pin the batch framing and the endpoint's byte-exact
// behavior the same way TestGoldenWire pins the single-field protocol.
// Regenerate after an intentional format change with:
//
//	go test ./internal/server -run TestGoldenStream -update

type streamFixture struct {
	ContainerVersion int `json:"container_version"`

	Structure []byte `json:"structure"`
	MeshID    string `json:"mesh_id"`

	// checkpoint: batch request (two fields, per-section bounds) → batch
	// response + headers.
	CheckpointQuery    string            `json:"checkpoint_query"`
	CheckpointBody     []byte            `json:"checkpoint_body"`
	CheckpointRespBody []byte            `json:"checkpoint_resp_body"`
	CheckpointHeaders  map[string]string `json:"checkpoint_headers"`
}

// recordStreamExchange runs the canonical checkpoint exchange for one codec
// against a fresh server and captures every byte.
func recordStreamExchange(t *testing.T, codec string) *streamFixture {
	t.Helper()
	s := New(Config{})
	m, f := testMesh(t)
	fx := &streamFixture{
		ContainerVersion: container.Version,
		Structure:        m.Structure(),
		CheckpointQuery: url.Values{
			wire.ParamLayout: {zmesh.LayoutZMesh.String()},
			wire.ParamCurve:  {"hilbert"},
			wire.ParamCodec:  {codec},
		}.Encode(),
	}
	post(t, s.Handler(), wire.PathMeshes, fx.Structure, http.StatusCreated)
	fx.MeshID = MeshID(fx.Structure)

	fx.CheckpointBody = goldenCheckpointBody(t, f)
	rec := postRaw(t, s.Handler(), wire.CheckpointPath(fx.MeshID)+"?"+fx.CheckpointQuery, wire.ContentTypeBatch, fx.CheckpointBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: status %d (body %q)", rec.Code, rec.Body.String())
	}
	fx.CheckpointRespBody = rec.Body.Bytes()
	fx.CheckpointHeaders = map[string]string{}
	for _, h := range []string{wire.HeaderLayout, wire.HeaderCurve, wire.HeaderCodec} {
		fx.CheckpointHeaders[h] = rec.Header().Get(h)
	}
	return fx
}

// goldenCheckpointBody builds the deterministic two-field batch request of
// the checkpoint fixtures, with distinct per-section bounds.
func goldenCheckpointBody(t *testing.T, f *zmesh.Field) []byte {
	t.Helper()
	var b bytes.Buffer
	bw := wire.NewBatchWriter(&b)
	dens := wire.AppendFloats(nil, zmesh.FieldValues(f))
	if err := bw.WriteSection("dens", "abs:0.001", dens); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteSection("pres", "abs:0.01", dens); err != nil {
		t.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestGoldenStream replays each codec's committed checkpoint exchange and
// requires byte-identical responses.
func TestGoldenStream(t *testing.T) {
	for _, codec := range zmesh.Codecs() {
		if strings.HasPrefix(codec, "test-") {
			continue
		}
		codec := codec
		t.Run(codec, func(t *testing.T) {
			name := filepath.Join(wireGoldenDir, "stream_"+codec+".json")
			if *updateWire {
				fx := recordStreamExchange(t, codec)
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
				t.Fatalf("%v (regenerate with `go test ./internal/server -run TestGoldenStream -update`)", err)
			}
			var fx streamFixture
			if err := json.Unmarshal(buf, &fx); err != nil {
				t.Fatalf("parsing %s: %v", name, err)
			}
			if fx.ContainerVersion != container.Version {
				t.Fatalf("%s: fixture written with container version %d, code is at version %d.\n"+
					"Regenerate with `go test ./internal/server -run TestGoldenStream -update`.",
					name, fx.ContainerVersion, container.Version)
			}

			s := New(Config{})
			post(t, s.Handler(), wire.PathMeshes, fx.Structure, http.StatusCreated)

			rec := postRaw(t, s.Handler(), wire.CheckpointPath(fx.MeshID)+"?"+fx.CheckpointQuery, wire.ContentTypeBatch, fx.CheckpointBody)
			if rec.Code != http.StatusOK {
				t.Fatalf("checkpoint: status %d (body %q)", rec.Code, rec.Body.String())
			}
			for h, want := range fx.CheckpointHeaders {
				if got := rec.Header().Get(h); got != want {
					t.Errorf("checkpoint header %s = %q, fixture pins %q", h, got, want)
				}
			}
			if !bytes.Equal(rec.Body.Bytes(), fx.CheckpointRespBody) {
				t.Fatalf("checkpoint response drifted (%d bytes, fixture %d)", rec.Body.Len(), len(fx.CheckpointRespBody))
			}
		})
	}
}
