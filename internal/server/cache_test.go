package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"testing"
	"time"

	zmesh "repro"
	"repro/client"
)

// distinctMesh builds the n-th of a family of topologically distinct
// meshes (different refinement patterns → different structure hashes).
func distinctMesh(t testing.TB, n int) (*zmesh.Mesh, *zmesh.Field) {
	t.Helper()
	m, err := zmesh.NewMesh(2, 4, [3]int{2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Refine(m.Roots()[n%4]); err != nil {
		t.Fatal(err)
	}
	if n >= 4 {
		if err := m.Refine(m.Roots()[(n+1)%4]); err != nil {
			t.Fatal(err)
		}
	}
	f := zmesh.SampleField(m, fmt.Sprintf("q%d", n), func(x, y, z float64) float64 {
		return math.Sin(float64(n+1)*x) + y
	})
	return m, f
}

// TestLRUBasics exercises the generic LRU directly: recency order,
// capacity eviction, refresh-on-get.
func TestLRUBasics(t *testing.T) {
	var evicted []int
	c := newLRU[int, string](2, func(k int, _ string) { evicted = append(evicted, k) })
	c.add(1, "a")
	c.add(2, "b")
	if _, ok := c.get(1); !ok {
		t.Fatal("key 1 missing")
	}
	c.add(3, "c") // evicts 2: key 1 was refreshed by the get
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", evicted)
	}
	if _, ok := c.get(2); ok {
		t.Fatal("key 2 still resident after eviction")
	}
	if _, ok := c.get(1); !ok {
		t.Fatal("key 1 evicted despite recency refresh")
	}
	c.remove(3)
	if c.len() != 1 {
		t.Fatalf("len = %d after remove, want 1", c.len())
	}
	if len(evicted) != 1 {
		t.Fatalf("remove invoked the eviction callback: %v", evicted)
	}
}

// TestMeshLRUEviction: registering past MaxMeshes drops the least recently
// used mesh; requests against it 404 until re-registration.
func TestMeshLRUEviction(t *testing.T) {
	s, cl := newTestServer(t, Config{MaxMeshes: 2})
	ctx := context.Background()

	m0, f0 := distinctMesh(t, 0)
	id0, err := cl.Register(ctx, m0)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 2; n++ {
		m, _ := distinctMesh(t, n)
		if _, err := cl.Register(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Registry().Counter("server.mesh.evictions").Load(); got != 1 {
		t.Fatalf("mesh evictions = %d, want 1", got)
	}
	_, err = cl.CompressField(ctx, id0, f0, zmesh.DefaultOptions(), testBound())
	var se *client.StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Fatalf("evicted mesh: got %v, want 404", err)
	}
	// Re-registering restores service.
	if _, err := cl.Register(ctx, m0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CompressField(ctx, id0, f0, zmesh.DefaultOptions(), testBound()); err != nil {
		t.Fatalf("compress after re-registration: %v", err)
	}
}

// TestAutoSharesResolvedEncoder: the cache key is the resolved layout, so
// layout=auto followed by the layout it resolves to is one miss and one
// recipe build, not two.
func TestAutoSharesResolvedEncoder(t *testing.T) {
	m, f := testMesh(t)
	s, cl := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	misses := s.Registry().Counter("server.cache.misses")
	builds := s.Registry().Counter("recipe.builds")
	m0, b0 := misses.Load(), builds.Load()
	for _, layout := range []zmesh.Layout{zmesh.LayoutAuto, zmesh.ResolveAuto(m.Dims(), "sz")} {
		opt := zmesh.Options{Layout: layout, Curve: "hilbert", Codec: "sz"}
		if _, err := cl.CompressField(ctx, id, f, opt, testBound()); err != nil {
			t.Fatal(err)
		}
	}
	if dm, db := misses.Load()-m0, builds.Load()-b0; dm != 1 || db != 1 {
		t.Fatalf("auto then resolved: %d cache misses, %d recipe builds, want 1 and 1", dm, db)
	}
}

// TestEncoderLRUEviction: with a single encoder slot, alternating pipelines
// keep evicting each other, so every request is a miss and a fresh recipe
// build; with enough slots the same sequence is all hits after warmup.
func TestEncoderLRUEviction(t *testing.T) {
	m, f := testMesh(t)
	ctx := context.Background()

	runSequence := func(cfg Config, reqs int) (builds, misses, evictions int64) {
		s, cl := newTestServer(t, cfg)
		id, err := cl.Register(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reqs; i++ {
			opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"}
			if i%2 == 1 {
				opt.Codec = "zfp"
			}
			if _, err := cl.CompressField(ctx, id, f, opt, testBound()); err != nil {
				t.Fatal(err)
			}
		}
		reg := s.Registry()
		return reg.Counter("recipe.builds").Load(),
			reg.Counter("server.cache.misses").Load(),
			reg.Counter("server.cache.evictions").Load()
	}

	builds, misses, evictions := runSequence(Config{MaxEncoders: 1}, 4)
	if misses != 4 || evictions != 3 {
		t.Fatalf("capacity-1 alternation: misses=%d evictions=%d, want 4 and 3", misses, evictions)
	}
	if builds != 4 {
		t.Fatalf("capacity-1 alternation rebuilt %d recipes, want 4", builds)
	}

	builds, misses, evictions = runSequence(Config{MaxEncoders: 8}, 4)
	if misses != 2 || evictions != 0 {
		t.Fatalf("roomy cache: misses=%d evictions=%d, want 2 and 0", misses, evictions)
	}
	if builds != 2 {
		t.Fatalf("roomy cache built %d recipes, want 2 (one per codec)", builds)
	}
}

// TestConcurrentRegisterAndCompress hammers the store under -race: 8
// goroutines each register a distinct mesh and immediately stream fields
// through it while the mesh LRU is tight enough to evict concurrently.
func TestConcurrentRegisterAndCompress(t *testing.T) {
	_, cl := newTestServer(t, Config{MaxMeshes: 4, MaxEncoders: 8})
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m, f := distinctMesh(t, g)
			values := zmesh.FieldValues(f)
			for iter := 0; iter < 4; iter++ {
				// Re-register each round: the tight LRU may have evicted
				// this mesh while other goroutines registered theirs.
				id, err := cl.Register(ctx, m)
				if err != nil {
					errs[g] = err
					return
				}
				c, err := cl.Compress(ctx, id, f.Name, values, zmesh.DefaultOptions(), testBound())
				if err != nil {
					var se *client.StatusError
					if errors.As(err, &se) && se.Code == http.StatusNotFound {
						continue // evicted between register and compress: legal
					}
					errs[g] = err
					return
				}
				if _, err := cl.Decompress(ctx, id, c); err != nil {
					var se *client.StatusError
					if errors.As(err, &se) && se.Code == http.StatusNotFound {
						continue
					}
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestStoreSizes sanity-checks the occupancy gauge.
func TestStoreSizes(t *testing.T) {
	s, cl := newTestServer(t, Config{})
	ctx := context.Background()
	m, f := testMesh(t)
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.CompressField(ctx, id, f, zmesh.DefaultOptions(), testBound()); err != nil {
		t.Fatal(err)
	}
	meshes, encoders := s.store.sizes()
	if meshes != 1 || encoders != 1 {
		t.Fatalf("sizes = (%d meshes, %d encoders), want (1, 1)", meshes, encoders)
	}
}
