package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	zmesh "repro"
	"repro/internal/compress"
	"repro/internal/compress/multilevel"
	cstore "repro/internal/store"
	"repro/internal/wire"
)

// Checkpoint reads: everything under GET /v1/checkpoints/{id} serves sealed
// artifacts straight from the content-addressed store — no session state is
// involved, so reads keep working across daemon restarts and concurrently
// with live writers. A field read replays the persisted frame chain through
// a fresh TemporalDecoder (the store is the source of truth; stream state is
// never cached across requests) and then serves the reconstruction in one of
// three shapes: the full level-order stream, a coarse level-prefix
// (?levels=K), or an error-bounded tier cascade (?tiers=K). Only the restore
// recipe outlives a request: the keyframe's Decoder comes from the mesh LRU,
// a cache derived from the keyframe's structure bytes, so every read on one
// topology shares one recipe build.

// maxReadTiers caps ?tiers=K: each tier k is relative-bound 10^-k, and
// beyond 8 the residuals are below double-precision noise for typical
// fields.
const maxReadTiers = 8

// storeErr maps store failures: a missing artifact is the client's 404,
// anything else (including corruption) is the server's 500.
func storeErr(err error) error {
	if errors.Is(err, cstore.ErrNotFound) {
		return &httpError{status: http.StatusNotFound, err: err}
	}
	return err
}

// loadManifest fetches and parses the manifest of one checkpoint.
func (s *Server) loadManifest(id string) (*wire.Manifest, error) {
	raw, err := s.artifacts.GetManifest(id)
	if err != nil {
		return nil, storeErr(err)
	}
	m, err := wire.ParseManifest(raw)
	if err != nil {
		return nil, fmt.Errorf("checkpoint %s: %w", id, err)
	}
	return m, nil
}

// handleCheckpointInfo: GET /v1/checkpoints/{id} — the JSON summary of a
// sealed checkpoint (fields, snapshot counts, bounds, artifact sizes).
func (s *Server) handleCheckpointInfo(w http.ResponseWriter, r *http.Request) error {
	if err := s.requireStore(); err != nil {
		return err
	}
	id := r.PathValue("id")
	m, err := s.loadManifest(id)
	if err != nil {
		return err
	}
	resp := wire.CheckpointResponse{CheckpointID: id, Fields: make([]wire.CheckpointFieldInfo, 0, len(m.Fields))}
	for _, f := range m.Fields {
		info := wire.CheckpointFieldInfo{
			Name:   f.Name,
			Layout: f.Layout,
			Curve:  f.Curve,
			Codec:  f.Codec,
			Bounds: make([]float64, 0, len(f.Frames)),
		}
		for _, fr := range f.Frames {
			info.Snapshots++
			if fr.Keyframe {
				info.Keyframes++
			}
			info.Bytes += fr.Bytes
			info.Bounds = append(info.Bounds, fr.Bound)
		}
		resp.Fields = append(resp.Fields, info)
	}
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	return json.NewEncoder(w).Encode(resp)
}

// manifestField resolves one field stream of a checkpoint by name.
func manifestField(m *wire.Manifest, name string) (*wire.ManifestField, error) {
	for i := range m.Fields {
		if m.Fields[i].Name == name {
			return &m.Fields[i], nil
		}
	}
	return nil, notFound("checkpoint has no field %q", name)
}

// snapParam resolves ?snap=N (default: the last snapshot of the stream).
func snapParam(r *http.Request, frames int) (int, error) {
	v := r.URL.Query().Get(wire.ParamSnapshot)
	if v == "" {
		return frames - 1, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, badRequest(fmt.Errorf("bad %s parameter %q", wire.ParamSnapshot, v))
	}
	if n >= frames {
		return 0, notFound("snapshot %d out of range (stream has %d)", n, frames)
	}
	return n, nil
}

// loadFrame fetches and parses the persisted temporal frame behind one
// manifest row. Store-side failures are 500s: the seal proved these bytes
// decodable.
func (s *Server) loadFrame(mf *wire.ManifestFrame) (*zmesh.TemporalCompressed, error) {
	s.mStore.objectGets.Inc()
	raw, err := s.artifacts.GetObject(mf.Object)
	if err != nil {
		return nil, storeErr(err)
	}
	var tc *zmesh.TemporalCompressed
	frame, err := wire.ParseTemporalFrame(raw)
	if err == nil {
		tc, err = zmesh.TemporalFromWire(frame)
	}
	if err != nil {
		return nil, fmt.Errorf("object %s: %w", mf.Object, err)
	}
	return tc, nil
}

// lastKeyframe is the index of the most recent keyframe at or before snap.
// ParseManifest enforces keyframe-first, so a miss means the store served a
// manifest the seal path could not have written.
func lastKeyframe(f *wire.ManifestField, snap int) (int, error) {
	for i := snap; i >= 0; i-- {
		if f.Frames[i].Keyframe {
			return i, nil
		}
	}
	return 0, fmt.Errorf("checkpoint field %q has no keyframe at or before snapshot %d", f.Name, snap)
}

// replayField replays one persisted stream through a fresh decoder, from the
// last keyframe at or before snap (a keyframe resets all decoder state, so
// nothing earlier can matter), and returns the snapshot's reconstruction. The
// keyframe's structure is registered like a POST /v1/meshes body, so the
// replay restores through the mesh's shared Decoder and its recipe.
func (s *Server) replayField(f *wire.ManifestField, snap int) (*zmesh.Field, *zmesh.Mesh, error) {
	key, err := lastKeyframe(f, snap)
	if err != nil {
		return nil, nil, err
	}
	dec := zmesh.NewTemporalDecoderFrom(s.store.decoder)
	var field *zmesh.Field
	for i := key; i <= snap; i++ {
		tc, err := s.loadFrame(&f.Frames[i])
		if err != nil {
			return nil, nil, err
		}
		if field, err = dec.DecompressSnapshot(tc); err != nil {
			return nil, nil, fmt.Errorf("replaying frame %d (object %s): %w", i, f.Frames[i].Object, err)
		}
	}
	return field, dec.Mesh(), nil
}

// handleCheckpointStructure: GET /v1/checkpoints/{id}/structure?field=&snap=
// — the serialized topology governing the requested snapshot (its stream's
// most recent keyframe at or before snap). Visualization clients register it
// to rebuild the mesh without replaying any field data.
func (s *Server) handleCheckpointStructure(w http.ResponseWriter, r *http.Request) error {
	if err := s.requireStore(); err != nil {
		return err
	}
	m, err := s.loadManifest(r.PathValue("id"))
	if err != nil {
		return err
	}
	name := r.URL.Query().Get(wire.ParamField)
	if name == "" {
		name = m.Fields[0].Name
	}
	f, err := manifestField(m, name)
	if err != nil {
		return err
	}
	snap, err := snapParam(r, len(f.Frames))
	if err != nil {
		return err
	}
	key, err := lastKeyframe(f, snap)
	if err != nil {
		return err
	}
	frame, err := s.loadFrame(&f.Frames[key])
	if err != nil {
		return err
	}
	h := w.Header()
	h.Set("Content-Type", wire.ContentTypeBinary)
	h.Set(wire.HeaderSnapshot, strconv.Itoa(snap))
	h.Set(wire.HeaderSnapshots, strconv.Itoa(len(f.Frames)))
	_, err = w.Write(frame.Structure)
	return err
}

// handleCheckpointField: GET /v1/checkpoints/{id}/fields/{field} with
// optional ?snap=N and one of ?levels=K / ?tiers=K. The default response is
// the full level-order reconstruction as float64-LE; levels=K serves the
// coarse prefix covering the first K refinement levels in the same form; tiers=K serves a batch of K multilevel tiers with strictly
// decreasing error bounds (decode any prefix for a bounded-error preview).
func (s *Server) handleCheckpointField(w http.ResponseWriter, r *http.Request) error {
	if err := s.requireStore(); err != nil {
		return err
	}
	m, err := s.loadManifest(r.PathValue("id"))
	if err != nil {
		return err
	}
	f, err := manifestField(m, r.PathValue("field"))
	if err != nil {
		return err
	}
	snap, err := snapParam(r, len(f.Frames))
	if err != nil {
		return err
	}
	q := r.URL.Query()
	levelsStr, tiersStr := q.Get(wire.ParamLevels), q.Get(wire.ParamTiers)
	if levelsStr != "" && tiersStr != "" {
		return badRequest(fmt.Errorf("%s and %s are mutually exclusive", wire.ParamLevels, wire.ParamTiers))
	}

	field, mesh, err := s.replayField(f, snap)
	if err != nil {
		return err
	}
	values := zmesh.FieldValues(field)
	s.mStore.reads.Inc()

	h := w.Header()
	h.Set(wire.HeaderSnapshot, strconv.Itoa(snap))
	h.Set(wire.HeaderSnapshots, strconv.Itoa(len(f.Frames)))
	h.Set(wire.HeaderMeshLevels, strconv.Itoa(mesh.MaxLevel()+1))

	if tiersStr != "" {
		k, err := strconv.Atoi(tiersStr)
		if err != nil || k < 1 || k > maxReadTiers {
			return badRequest(fmt.Errorf("bad %s parameter %q (want 1..%d)", wire.ParamTiers, tiersStr, maxReadTiers))
		}
		return s.writeTiers(w, values, k)
	}

	out := values
	levels := mesh.MaxLevel() + 1
	if levelsStr != "" {
		k, err := strconv.Atoi(levelsStr)
		if err != nil {
			return badRequest(fmt.Errorf("bad %s parameter %q", wire.ParamLevels, levelsStr))
		}
		n, err := zmesh.LevelPrefixCells(mesh, k)
		if err != nil {
			return badRequest(err)
		}
		out = values[:n]
		levels = k
		s.mStore.levelReads.Inc()
	}
	h.Set(wire.HeaderLevels, strconv.Itoa(levels))
	h.Set("Content-Type", wire.ContentTypeBinary)
	raw, ok := wire.ViewBytes(out)
	if !ok {
		raw = wire.AppendFloats(nil, out)
	}
	if _, err := w.Write(raw); err != nil {
		return committed(err)
	}
	return nil
}

// writeTiers compresses values into k progressive tiers (relative bounds
// 10^-1 .. 10^-k) and writes them as one batch stream, each section named
// "tier" with the tier's guaranteed absolute bound in the section metadata.
func (s *Server) writeTiers(w http.ResponseWriter, values []float64, k int) error {
	bounds := make([]float64, k)
	b := 0.1
	for i := range bounds {
		bounds[i] = b
		b /= 10
	}
	tiers, err := multilevel.New().CompressProgressive(values, []int{len(values)}, compress.Rel, bounds)
	if err != nil {
		return fmt.Errorf("tiering reconstruction: %w", err)
	}
	s.mStore.tierReads.Inc()
	h := w.Header()
	h.Set(wire.HeaderTiers, strconv.Itoa(len(tiers)))
	h.Set("Content-Type", wire.ContentTypeBatch)
	bw := wire.NewBatchWriter(w)
	for _, t := range tiers {
		meta := strconv.FormatFloat(t.Bound, 'g', -1, 64)
		if err := bw.WriteSection("tier", meta, t.Payload); err != nil {
			return committed(err)
		}
	}
	if err := bw.Close(); err != nil {
		return committed(err)
	}
	return nil
}
