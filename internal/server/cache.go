package server

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"

	zmesh "repro"
	"repro/internal/telemetry"
)

// store is the server's mesh LRU: structure-hash → registered topology plus
// its Decoder. The Decoder is the mesh's one recipe cache — it builds each
// (layout, curve) recipe once and hands out one shared Encoder per codec on
// it — so evicting a mesh drops its recipes and encoders together with it.
// Map operations run under one mutex; recipe construction runs inside the
// Decoder, outside any lock.
type store struct {
	reg *zmesh.Registry

	hits          *telemetry.Counter // encoders served from a mesh's cache
	misses        *telemetry.Counter // encoders built
	meshRegs      *telemetry.Counter // successful registrations (new meshes)
	meshEvictions *telemetry.Counter // meshes dropped by capacity

	mu     sync.Mutex
	meshes *lru[string, *meshEntry]
}

// meshEntry is one registered topology.
type meshEntry struct {
	id        string
	structure []byte
	mesh      *zmesh.Mesh
	dec       *zmesh.Decoder
}

func newStore(maxMeshes int, reg *zmesh.Registry) *store {
	s := &store{
		reg:           reg,
		hits:          reg.Counter("server.cache.hits"),
		misses:        reg.Counter("server.cache.misses"),
		meshRegs:      reg.Counter("server.mesh.registered"),
		meshEvictions: reg.Counter("server.mesh.evictions"),
	}
	s.meshes = newLRU[string, *meshEntry](maxMeshes, func(string, *meshEntry) {
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
		// every request shares one Decoder and its recipes.
		return prev, false, nil
	}
	s.meshes.add(id, e)
	s.meshRegs.Inc()
	return e, true, nil
}

// decoder is the keyframe source of every server-side TemporalDecoder: the
// registered Decoder of a keyframe's structure, so sessions and checkpoint
// reads on one topology share one recipe cache with the mesh endpoints.
func (s *store) decoder(structure []byte) (*zmesh.Decoder, error) {
	e, _, err := s.register(structure)
	if err != nil {
		return nil, err
	}
	return e.dec, nil
}

// lookup returns the registered mesh entry, refreshing its recency.
func (s *store) lookup(id string) (*meshEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meshes.get(id)
}
