package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// rawResponder answers every request with a 200 that declares a
// Content-Length of declared bytes and then sends the first `sent` bytes of
// a body before closing the connection, whatever it declared.
func rawResponder(t *testing.T, declared, sent int64) *httptest.Server {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/octet-stream\r\nContent-Length: %d\r\n\r\n", declared)
		buf.Write(bytes.Repeat([]byte{7}, int(sent)))
		if err := buf.Flush(); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// get runs one GET through Client.do without retries and reports the heap
// bytes the whole exchange allocated.
func get(t *testing.T, ts *httptest.Server) (body []byte, allocated uint64, err error) {
	c := New(ts.URL, WithMaxRetries(0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, _, err = c.do(context.Background(), http.MethodGet, ts.URL, "", nil)
	runtime.ReadMemStats(&after)
	return body, after.TotalAlloc - before.TotalAlloc, err
}

// TestSizedBodyReadExactly: a body that matches its Content-Length is read
// into one buffer of exactly that size.
func TestSizedBodyReadExactly(t *testing.T) {
	body, _, err := get(t, rawResponder(t, 4096, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 4096 || cap(body) != 4096 {
		t.Fatalf("body len %d cap %d, want exactly 4096", len(body), cap(body))
	}
}

// TestShortBodyFails: a body cut off before its declared length is an
// error the caller can recognise, never silently short data.
func TestShortBodyFails(t *testing.T) {
	body, _, err := get(t, rawResponder(t, 4096, 100))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short body: %d bytes, err %v; want io.ErrUnexpectedEOF", len(body), err)
	}
}

// TestOversizedDeclaredLength: a server that declares 1 GiB and sends 100
// bytes costs the client what arrives, not what was declared, and the read
// still fails as truncated.
func TestOversizedDeclaredLength(t *testing.T) {
	_, allocated, err := get(t, rawResponder(t, 1<<30, 100))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("oversized declaration: err %v, want io.ErrUnexpectedEOF", err)
	}
	if allocated > 4<<20 {
		t.Fatalf("a 1 GiB declaration made the client allocate %d bytes", allocated)
	}
}
