package server

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	zmesh "repro"
	"repro/internal/telemetry"
)

// store holds the server's two LRU layers:
//
//   - meshes: structure-hash → registered topology plus its Decoder. The
//     decoder internally caches restore recipes per (layout, curve), so the
//     decompress path amortizes recipe construction per mesh for free.
//   - encoders: (structure-hash, layout, curve, codec) → Encoder future. An
//     Encoder binds a recipe to a codec, so the codec joins the key; two
//     codecs over the same (mesh, layout, curve) still share nothing, which
//     keeps eviction granular.
//
// Evicting a mesh drops every encoder derived from it (the keys are tracked
// on the mesh entry), so the encoder LRU never serves a topology the mesh
// LRU no longer admits. All map operations run under one mutex; recipe
// construction — the expensive part — runs outside it behind a
// once-guarded future, so concurrent requests for the same pipeline build
// it exactly once while requests for other pipelines proceed.
type store struct {
	reg *zmesh.Registry

	hits          *telemetry.Counter // encoder/decoder resolved from cache
	misses        *telemetry.Counter // encoder had to be built
	evictions     *telemetry.Counter // encoder entries dropped by capacity
	meshRegs      *telemetry.Counter // successful registrations (new meshes)
	meshEvictions *telemetry.Counter // meshes dropped by capacity

	mu       sync.Mutex
	meshes   *lru[string, *meshEntry]
	encoders *lru[encoderKey, *encoderFuture]
}

// meshEntry is one registered topology.
type meshEntry struct {
	id        string
	structure []byte
	mesh      *zmesh.Mesh
	dec       *zmesh.Decoder
	// encKeys are the encoder-cache keys derived from this mesh, removed
	// alongside it on eviction. Guarded by the store mutex.
	encKeys []encoderKey
}

type encoderKey struct {
	meshID string
	layout zmesh.Layout
	curve  string
	codec  string
}

// encoderFuture is a once-built encoder slot: the store lock only ever
// publishes the future; the recipe build happens in build() outside it.
type encoderFuture struct {
	once sync.Once
	enc  *zmesh.Encoder
	err  error
}

func newStore(maxMeshes, maxEncoders int, reg *zmesh.Registry) *store {
	s := &store{
		reg:           reg,
		hits:          reg.Counter("server.cache.hits"),
		misses:        reg.Counter("server.cache.misses"),
		evictions:     reg.Counter("server.cache.evictions"),
		meshRegs:      reg.Counter("server.mesh.registered"),
		meshEvictions: reg.Counter("server.mesh.evictions"),
	}
	s.encoders = newLRU[encoderKey, *encoderFuture](maxEncoders, func(encoderKey, *encoderFuture) {
		s.evictions.Inc()
	})
	s.meshes = newLRU[string, *meshEntry](maxMeshes, func(_ string, e *meshEntry) {
		for _, k := range e.encKeys {
			s.encoders.remove(k)
		}
		s.meshEvictions.Inc()
	})
	return s
}

// MeshID is the content address of a structure blob: hex SHA-256.
func MeshID(structure []byte) string {
	sum := sha256.Sum256(structure)
	return hex.EncodeToString(sum[:])
}

// register decodes and stores a topology, returning its entry and whether
// it was newly created. Re-registering refreshes recency only.
func (s *store) register(structure []byte) (*meshEntry, bool, error) {
	id := MeshID(structure)
	s.mu.Lock()
	if e, ok := s.meshes.get(id); ok {
		s.mu.Unlock()
		return e, false, nil
	}
	s.mu.Unlock()

	// Decode outside the lock: MeshFromStructure validates and allocates,
	// and concurrent registrations of distinct meshes should not serialize.
	m, err := zmesh.NewDecoderFromStructure(structure)
	if err != nil {
		return nil, false, err
	}
	e := &meshEntry{
		id:        id,
		structure: append([]byte(nil), structure...),
		mesh:      m.Mesh(),
		dec:       m.Instrument(s.reg),
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.meshes.get(id); ok {
		// A concurrent registration of the same blob won; keep its entry so
		// encoder-cache keys stay attached to one canonical mesh.
		return prev, false, nil
	}
	s.meshes.add(id, e)
	s.meshRegs.Inc()
	return e, true, nil
}

// lookup returns the registered mesh entry, refreshing its recency.
func (s *store) lookup(id string) (*meshEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meshes.get(id)
}

// encoder resolves the cached encoder for a pipeline key, building (and
// recording a recipe.builds increment) only on a miss. Concurrent callers
// for the same key share one build. LayoutAuto is resolved before the key
// is formed, so layout=auto and the layout it resolves to share one entry.
func (s *store) encoder(e *meshEntry, opt zmesh.Options) (*zmesh.Encoder, error) {
	if opt.Layout == zmesh.LayoutAuto {
		opt.Layout = zmesh.ResolveAuto(e.mesh.Dims(), opt.Codec)
	}
	key := encoderKey{meshID: e.id, layout: opt.Layout, curve: opt.Curve, codec: opt.Codec}
	s.mu.Lock()
	fut, ok := s.encoders.get(key)
	if ok {
		s.hits.Inc()
	} else {
		// Re-check the mesh is still admitted: an eviction racing this
		// request must not resurrect encoder keys for a dropped mesh. The
		// eviction surfaces as 404 — the same contract as a mesh that was
		// never registered, so clients re-register rather than retrying a
		// "server error" that will never heal on its own.
		if _, live := s.meshes.get(e.id); !live {
			s.mu.Unlock()
			return nil, notFound("mesh %s evicted, re-register it", e.id)
		}
		fut = &encoderFuture{}
		s.encoders.add(key, fut)
		e.encKeys = append(e.encKeys, key)
		s.misses.Inc()
	}
	s.mu.Unlock()

	fut.once.Do(func() {
		fut.enc, fut.err = zmesh.NewEncoderObserved(e.mesh, opt, s.reg)
	})
	if fut.err != nil {
		// Do not cache failures: drop the future so the next request retries.
		s.mu.Lock()
		if cur, ok := s.encoders.get(key); ok && cur == fut {
			s.encoders.remove(key)
		}
		s.mu.Unlock()
		return nil, fut.err
	}
	return fut.enc, nil
}

// sizes reports the current cache occupancy (for expvar-style gauges).
func (s *store) sizes() (meshes, encoders int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meshes.len(), s.encoders.len()
}
