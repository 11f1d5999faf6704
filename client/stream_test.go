package client

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	zmesh "repro"
	"repro/internal/wire"
)

// fakeStreamServer mocks the compress endpoint: it reads the plain request
// body and answers with the payload plus the metadata headers.
func fakeStreamServer(t *testing.T, reply []byte, before func(n int, w http.ResponseWriter, r *http.Request) bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1))
		if before != nil && !before(n, w, r) {
			return
		}
		if r.URL.Path != wire.CompressPath("m1") {
			http.Error(w, `{"error":"wrong path"}`, http.StatusNotFound)
			return
		}
		got, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		h := w.Header()
		h.Set("Content-Type", wire.ContentTypeBinary)
		h.Set(wire.HeaderField, "dens")
		h.Set(wire.HeaderLayout, zmesh.LayoutZMesh.String())
		h.Set(wire.HeaderCurve, "hilbert")
		h.Set(wire.HeaderCodec, "sz")
		h.Set(wire.HeaderNumValues, strconv.Itoa(len(got)/8))
		w.Write(reply)
	}))
	t.Cleanup(srv.Close)
	return srv, &calls
}

func TestCompressStreamFramesAndParses(t *testing.T) {
	values := make([]float64, 1000)
	for i := range values {
		values[i] = float64(i) * 0.25
	}
	reply := []byte("the artifact payload")
	srv, calls := fakeStreamServer(t, reply, func(n int, w http.ResponseWriter, r *http.Request) bool {
		// The source's length is unknown, so the body is chunked
		// Transfer-Encoding, in the plain float64-LE encoding.
		if r.ContentLength != -1 || r.Header.Get("Content-Type") != wire.ContentTypeBinary {
			http.Error(w, `{"error":"not a reader-fed plain body"}`, http.StatusBadRequest)
			return false
		}
		return true
	})
	c := New(srv.URL)
	comp, err := c.CompressStream(context.Background(), "m1", "dens",
		iotest.HalfReader(bytes.NewReader(wire.AppendFloats(nil, values))), zmesh.DefaultOptions(), zmesh.AbsBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comp.Payload, reply) {
		t.Fatalf("payload %q, want %q", comp.Payload, reply)
	}
	if comp.NumValues != len(values) || comp.FieldName != "dens" || comp.Codec != "sz" {
		t.Fatalf("artifact metadata wrong: %+v", comp)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d requests, want 1", calls.Load())
	}
}

// TestCompressStreamRetriesBeforeFirstByte: sheds that land before any
// source byte is consumed are retried with backoff, like buffered
// requests.
func TestCompressStreamRetriesBeforeFirstByte(t *testing.T) {
	reply := []byte("ok")
	srv, calls := fakeStreamServer(t, reply, func(n int, w http.ResponseWriter, r *http.Request) bool {
		if n <= 2 {
			// Shed without reading the body: the client's source is untouched.
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
			return false
		}
		return true
	})
	c := New(srv.URL, WithBackoff(time.Microsecond, time.Millisecond), WithMaxRetries(8))
	// A blocking-then-ready source would race the shed with the pump; an
	// empty source makes "zero bytes consumed" deterministic.
	comp, err := c.CompressStream(context.Background(), "m1", "dens",
		bytes.NewReader(nil), zmesh.DefaultOptions(), zmesh.AbsBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comp.Payload, reply) {
		t.Fatalf("payload %q, want %q", comp.Payload, reply)
	}
	if calls.Load() != 3 {
		t.Fatalf("%d requests, want 3 (two sheds + success)", calls.Load())
	}
}

// TestCompressStreamNoReplayAfterConsumption: once the server has consumed
// source bytes, a failure must NOT retry (the io.Reader cannot be rewound)
// and the error must say so.
func TestCompressStreamNoReplayAfterConsumption(t *testing.T) {
	srv, calls := fakeStreamServer(t, nil, func(n int, w http.ResponseWriter, r *http.Request) bool {
		// Read the whole body first — the source is definitely consumed —
		// then fail with a normally-retryable status.
		io.Copy(io.Discard, r.Body)
		http.Error(w, `{"error":"boom"}`, http.StatusServiceUnavailable)
		return false
	})
	c := New(srv.URL, WithBackoff(time.Microsecond, time.Millisecond), WithMaxRetries(8))
	_, err := c.CompressStream(context.Background(), "m1", "dens",
		bytes.NewReader(wire.AppendFloats(nil, make([]float64, 4096))), zmesh.DefaultOptions(), zmesh.AbsBound(1e-3))
	if err == nil {
		t.Fatal("stream failure after consumption did not error")
	}
	if !strings.Contains(err.Error(), "cannot replay") {
		t.Fatalf("error %q does not explain the no-replay rule", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d requests, want exactly 1 (no replay of a consumed stream)", calls.Load())
	}
}

// TestCompressStreamNonRetryableStatus: a 400 fails immediately as a
// StatusError, never retried.
func TestCompressStreamNonRetryableStatus(t *testing.T) {
	srv, calls := fakeStreamServer(t, nil, func(n int, w http.ResponseWriter, r *http.Request) bool {
		http.Error(w, `{"error":"bad bound"}`, http.StatusBadRequest)
		return false
	})
	c := New(srv.URL, WithMaxRetries(8))
	_, err := c.CompressStream(context.Background(), "m1", "dens",
		bytes.NewReader(nil), zmesh.DefaultOptions(), zmesh.AbsBound(1e-3))
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("got %v, want a 400 StatusError", err)
	}
	if se.Msg != "bad bound" {
		t.Fatalf("message %q not extracted from the JSON error body", se.Msg)
	}
	if calls.Load() != 1 {
		t.Fatalf("%d requests, want 1", calls.Load())
	}
}

// TestCompressStreamSourceError: a failure in the caller's reader surfaces
// as a source error, not a transport one.
func TestCompressStreamSourceError(t *testing.T) {
	srv, _ := fakeStreamServer(t, nil, nil)
	c := New(srv.URL, WithMaxRetries(2), WithBackoff(time.Microsecond, time.Millisecond))
	boom := errors.New("disk on fire")
	_, err := c.CompressStream(context.Background(), "m1", "dens",
		io.MultiReader(bytes.NewReader(make([]byte, 64)), &failingReader{err: boom}),
		zmesh.DefaultOptions(), zmesh.AbsBound(1e-3))
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("got %v, want the source error", err)
	}
}

type failingReader struct{ err error }

func (f *failingReader) Read([]byte) (int, error) { return 0, f.err }

// TestDecompressStreamRetriesAndValidates: transient failures replay from
// the artifact buffer; the values land in the writer; the count is checked
// against the server's X-Zmesh-Num-Values header and the artifact.
func TestDecompressStreamRetriesAndValidates(t *testing.T) {
	values := []float64{1, 2, 3, 4.5}
	valueBytes := wire.AppendFloats(nil, values)
	var calls atomic.Int64
	declared := atomic.Int64{}
	declared.Store(int64(len(values)))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"shed"}`, http.StatusTooManyRequests)
			return
		}
		// The request body must be the artifact payload, plain.
		got, err := io.ReadAll(r.Body)
		if err != nil || r.URL.Path != wire.DecompressPath("m1") || string(got) != "artifact" {
			http.Error(w, `{"error":"wrong request"}`, http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", wire.ContentTypeBinary)
		w.Header().Set(wire.HeaderNumValues, strconv.FormatInt(declared.Load(), 10))
		w.Write(valueBytes)
	}))
	t.Cleanup(srv.Close)

	c := New(srv.URL, WithBackoff(time.Microsecond, time.Millisecond), WithMaxRetries(8))
	comp := &zmesh.Compressed{FieldName: "dens", Layout: zmesh.LayoutZMesh, Curve: "hilbert", NumValues: len(values), Payload: []byte("artifact")}
	var out bytes.Buffer
	n, err := c.DecompressStream(context.Background(), "m1", comp, &out)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(values) {
		t.Fatalf("returned %d values, want %d", n, len(values))
	}
	if !bytes.Equal(out.Bytes(), valueBytes) {
		t.Fatal("value bytes differ from the server's")
	}
	if calls.Load() != 3 {
		t.Fatalf("%d requests, want 3", calls.Load())
	}

	// A count mismatch against the artifact must be flagged.
	comp.NumValues = len(values) + 1
	if _, err := c.DecompressStream(context.Background(), "m1", comp, io.Discard); err == nil {
		t.Fatal("value-count mismatch against the artifact not detected")
	}
	// So must a complete body shorter than the server itself declared.
	comp.NumValues = 0
	declared.Store(int64(len(values)) + 1)
	if _, err := c.DecompressStream(context.Background(), "m1", comp, io.Discard); err == nil || !strings.Contains(err.Error(), "declared") {
		t.Fatalf("got %v, want a value-count mismatch against the header", err)
	}
}

// TestDecompressStreamTruncatedResponse: a response cut short (the server
// aborted mid-body) is an error, never silent short data.
func TestDecompressStreamTruncatedResponse(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		full := wire.AppendFloats(nil, []float64{1, 2, 3})
		w.Header().Set(wire.HeaderNumValues, "3")
		w.Header().Set("Content-Length", strconv.Itoa(len(full)))
		w.Write(full[:len(full)-8]) // the connection closes one value early
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithMaxRetries(0))
	comp := &zmesh.Compressed{FieldName: "dens", Layout: zmesh.LayoutZMesh, Curve: "hilbert", Payload: []byte("x")}
	_, err := c.DecompressStream(context.Background(), "m1", comp, io.Discard)
	if err == nil {
		t.Fatal("truncated response accepted")
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want an ErrUnexpectedEOF-wrapped error", err)
	}
}

// TestCompressBatchBuildsSectionsAndParses: the batch request carries one
// section per field with the bound as meta, and the response sections come
// back as artifacts with copied payloads.
func TestCompressBatchBuildsSectionsAndParses(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		br := wire.NewBatchReader(r.Body, 0)
		h := w.Header()
		h.Set("Content-Type", wire.ContentTypeBatch)
		h.Set(wire.HeaderLayout, zmesh.LayoutZMesh.String())
		h.Set(wire.HeaderCurve, "hilbert")
		h.Set(wire.HeaderCodec, "sz")
		bw := wire.NewBatchWriter(w)
		for {
			name, meta, payload, err := br.Next(nil)
			if err == io.EOF {
				break
			}
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if meta != "abs:0.001" {
				http.Error(w, `{"error":"missing bound meta"}`, http.StatusBadRequest)
				return
			}
			// Echo a fake artifact: payload = name, count = len(values).
			bw.WriteSection(name, strconv.Itoa(len(payload)/8), []byte("artifact-"+name))
		}
		bw.Close()
	}))
	t.Cleanup(srv.Close)

	c := New(srv.URL)
	fields := []BatchField{
		{Name: "dens", Values: []float64{1, 2}},
		{Name: "pres", Values: []float64{3, 4, 5}},
	}
	arts, err := c.CompressBatch(context.Background(), "m1", fields, zmesh.DefaultOptions(), zmesh.AbsBound(1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 2 {
		t.Fatalf("%d artifacts, want 2", len(arts))
	}
	for i, f := range fields {
		if arts[i].FieldName != f.Name || arts[i].NumValues != len(f.Values) {
			t.Fatalf("artifact %d: %+v", i, arts[i])
		}
		if string(arts[i].Payload) != "artifact-"+f.Name {
			t.Fatalf("artifact %d payload %q", i, arts[i].Payload)
		}
	}
	// Payloads must be independent copies, not aliases of one parse buffer.
	arts[0].Payload[0] = 'X'
	if string(arts[1].Payload) != "artifact-pres" {
		t.Fatal("batch artifact payloads alias each other")
	}

	if _, err := c.CompressBatch(context.Background(), "m1", nil, zmesh.DefaultOptions(), zmesh.AbsBound(1e-3)); err == nil {
		t.Fatal("empty batch accepted")
	}
}
