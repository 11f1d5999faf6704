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

// TestOnePipelineOneRecipe: the mesh's Decoder is its one recipe cache, so
// compressing with two codecs on one (layout, curve), re-requesting both,
// and decompressing both artifacts builds the recipe once. The encoders are
// still per codec: two misses, then hits.
func TestOnePipelineOneRecipe(t *testing.T) {
	m, f := testMesh(t)
	s, cl := newTestServer(t, Config{})
	ctx := context.Background()
	id, err := cl.Register(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	reg := s.Registry()
	builds := reg.Counter("recipe.builds")
	misses := reg.Counter("server.cache.misses")
	hits := reg.Counter("server.cache.hits")
	b0, m0, h0 := builds.Load(), misses.Load(), hits.Load()
	var cs []*zmesh.Compressed
	for _, codec := range []string{"sz", "zfp", "sz", "zfp"} {
		opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: codec}
		c, err := cl.CompressField(ctx, id, f, opt, testBound())
		if err != nil {
			t.Fatal(err)
		}
		cs = append(cs, c)
	}
	for _, c := range cs[:2] {
		if _, err := cl.Decompress(ctx, id, c); err != nil {
			t.Fatal(err)
		}
	}
	if got := builds.Load() - b0; got != 1 {
		t.Fatalf("sz + zfp + both decompresses built %d recipes, want 1", got)
	}
	if dm, dh := misses.Load()-m0, hits.Load()-h0; dm != 2 || dh != 2 {
		t.Fatalf("encoder cache: %d misses, %d hits, want 2 and 2 (one encoder per codec)", dm, dh)
	}
}

// TestConcurrentRegisterAndCompress hammers the store under -race: 8
// goroutines each register a distinct mesh and immediately stream fields
// through it while the mesh LRU is tight enough to evict concurrently.
func TestConcurrentRegisterAndCompress(t *testing.T) {
	_, cl := newTestServer(t, Config{MaxMeshes: 4})
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
