package server

import (
	"bytes"
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	zmesh "repro"
	"repro/client"
)

// TestPutScratchDropsOversizedBuffers is the scratch-pinning regression:
// the pool audit must cover every pooled buffer — body, float decode
// buffer, and the pipeline Scratch's internals — not just the body. Before
// the fix, a misaligned or big-endian request grew sc.values to the full
// field size without touching sc.body, and the capacity stayed pinned in
// the pool forever.
func TestPutScratchDropsOversizedBuffers(t *testing.T) {
	defer func(old int) { maxPooledBody = old }(maxPooledBody)
	maxPooledBody = 1 << 10

	cases := []struct {
		name string
		fill func(sc *requestScratch)
	}{
		{"body only", func(sc *requestScratch) { sc.body = make([]byte, 2<<10) }},
		// The pre-fix escape hatches: capacity held outside sc.body.
		{"values only", func(sc *requestScratch) { sc.values = make([]float64, 1<<10) }},
		{"pipeline scratch only", func(sc *requestScratch) {
			// Grow the zmesh.Scratch internals the way a real request does:
			// run a compression through it.
			m, f := testMesh(t)
			enc, err := zmesh.NewEncoder(m, zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := enc.CompressValuesScratch("dens", zmesh.FieldValues(f), testBound(), &sc.zs); err != nil {
				t.Fatal(err)
			}
			if sc.zs.PinnedBytes() == 0 {
				t.Fatal("compression did not grow the pipeline scratch; the case tests nothing")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := new(requestScratch)
			tc.fill(sc)
			if sc.pinnedBytes() <= maxPooledBody {
				t.Fatalf("scratch pins only %d bytes, cap is %d; the case tests nothing", sc.pinnedBytes(), maxPooledBody)
			}
			putScratch(sc)
			if sc.pinnedBytes() != 0 {
				t.Fatalf("putScratch pooled a scratch pinning %d bytes (cap %d)", sc.pinnedBytes(), maxPooledBody)
			}
		})
	}

	// And the inverse: a modest scratch keeps its buffers (that is the point
	// of pooling).
	sc := new(requestScratch)
	sc.body = make([]byte, 512)
	sc.values = make([]float64, 8)
	putScratch(sc)
	if cap(sc.body) == 0 || cap(sc.values) == 0 {
		t.Fatal("putScratch dropped buffers under the cap")
	}
}

// TestReadBodyDeclaredLengthBomb is the allocation-bomb regression: a
// request declaring Content-Length: 512 MiB while sending a handful of
// bytes must not allocate 512 MiB up front — before the fix readBody sized
// the buffer directly from the declaration.
func TestReadBodyDeclaredLengthBomb(t *testing.T) {
	s := New(Config{}) // default cap 1 GiB, above the lie
	body := []byte("a few real bytes")
	req := httptest.NewRequest(http.MethodPost, "/v1/meshes", bytes.NewReader(body))
	req.ContentLength = 512 << 20

	buf, err := s.readBody(req, nil)
	if err != nil {
		t.Fatalf("readBody: %v", err)
	}
	if !bytes.Equal(buf, body) {
		t.Fatalf("readBody returned %q, want %q", buf, body)
	}
	if cap(buf) > 2*readBodySeed {
		t.Fatalf("declared length sized the buffer to %d bytes; pre-allocation must be capped at the %d seed", cap(buf), readBodySeed)
	}

	// An honest large declaration still reads correctly (geometric growth
	// past the seed).
	big := make([]byte, 3<<20)
	for i := range big {
		big[i] = byte(i)
	}
	req = httptest.NewRequest(http.MethodPost, "/v1/meshes", bytes.NewReader(big))
	req.ContentLength = int64(len(big))
	buf, err = s.readBody(req, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, big) {
		t.Fatal("large body corrupted by the seeded growth path")
	}

	// A declaration beyond the server cap still fails up front with the
	// 413-mapped error, before any read.
	req = httptest.NewRequest(http.MethodPost, "/v1/meshes", bytes.NewReader(body))
	req.ContentLength = s.cfg.MaxBodyBytes + 1
	_, err = s.readBody(req, nil)
	var mbe *http.MaxBytesError
	if !errors.As(err, &mbe) {
		t.Fatalf("over-cap declaration: got %v, want MaxBytesError", err)
	}
	if statusFor(err) != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap declaration maps to %d, want 413", statusFor(err))
	}
}

// TestShutdownBeforeServe is the lifecycle-race regression: before the
// fix, Shutdown read s.srv unsynchronized, so a Shutdown landing before
// Serve was a silent no-op and the later Serve ran forever. Shutdown must
// latch: any Serve after (or racing) it returns ErrServerClosed.
func TestShutdownBeforeServe(t *testing.T) {
	s := New(Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown before Serve: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	select {
	case err := <-done:
		if err != http.ErrServerClosed {
			t.Fatalf("Serve after Shutdown returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Shutdown did not return; the shutdown was silently lost")
	}
	// The listener must have been released.
	ln2, err := net.Listen("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("listener still held after refused Serve: %v", err)
	}
	ln2.Close()
}

// TestServeShutdownConcurrent hammers the lifecycle under the race
// detector: many goroutines racing Serve and Shutdown on fresh servers.
// Whatever the interleaving, every Serve must return (no leak, no lost
// shutdown) — and without the mutex this test fails under -race on the
// s.srv field.
func TestServeShutdownConcurrent(t *testing.T) {
	for i := 0; i < 20; i++ {
		s := New(Config{})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(2)
		serveErr := make(chan error, 1)
		go func() {
			defer wg.Done()
			serveErr <- s.Serve(ln)
		}()
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Errorf("Shutdown: %v", err)
			}
		}()
		wg.Wait()
		select {
		case err := <-serveErr:
			if err != http.ErrServerClosed {
				t.Fatalf("iteration %d: Serve returned %v, want ErrServerClosed", i, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("iteration %d: Serve never returned", i)
		}
		ln.Close()
	}
}

// TestEvictedMeshEndToEnd: the eviction 404 over the wire, through the
// client (which must not burn retries on it).
func TestEvictedMeshEndToEnd(t *testing.T) {
	m, f := testMesh(t)
	_, cl := newTestServer(t, Config{MaxMeshes: 1})
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	mB, err := zmesh.NewMesh(2, 8, [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Register(ctx, mB); err != nil {
		t.Fatal(err)
	}
	_, err = cl.CompressField(ctx, id, f, zmesh.DefaultOptions(), testBound())
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("evicted mesh over the wire: got %v, want a 404 StatusError", err)
	}
	// Re-registering heals it.
	if _, err := cl.Register(ctx, m); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CompressField(ctx, id, f, zmesh.DefaultOptions(), testBound()); err != nil {
		t.Fatalf("compress after re-registration: %v", err)
	}
}
