package server

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	zmesh "repro"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Temporal sessions: the server-side half of a simulation's temporal stream.
// A session holds one TemporalDecoder per quantity, whose keyframes restore
// through the mesh LRU's Decoder for their structure; every posted frame is
// fully decoded (the decoder's validate-first-commit-last contract) before
// its raw bytes are persisted to the content-addressed artifact store, so a
// sealed checkpoint only ever references frames the server proved it can
// replay. Sessions are soft state by design: idle ones are evicted, restarts
// drop them all, and recovery is always the same cheap move — the client
// re-attaches and sends a forced keyframe, never replaying history and never
// resuming a stream whose server state silently diverged.

// sessionMetrics is the server.session.* counter set (see vars_session_test
// for the pinned key shape).
type sessionMetrics struct {
	active          *telemetry.Counter
	created         *telemetry.Counter
	evicted         *telemetry.Counter
	sealed          *telemetry.Counter
	frames          *telemetry.Counter
	forcedKeyframes *telemetry.Counter
	danglingDeltas  *telemetry.Counter
}

func newSessionMetrics(r *zmesh.Registry) *sessionMetrics {
	return &sessionMetrics{
		active:          r.Counter("server.session.active"),
		created:         r.Counter("server.session.created"),
		evicted:         r.Counter("server.session.evicted"),
		sealed:          r.Counter("server.session.sealed"),
		frames:          r.Counter("server.session.frames"),
		forcedKeyframes: r.Counter("server.session.forced_keyframes"),
		danglingDeltas:  r.Counter("server.session.dangling_deltas"),
	}
}

// storeMetrics is the server.store.* counter set.
type storeMetrics struct {
	objects       *telemetry.Counter
	artifactBytes *telemetry.Counter
	dedupHits     *telemetry.Counter
	checkpoints   *telemetry.Counter
	objectGets    *telemetry.Counter // frame objects fetched by reads
	reads         *telemetry.Counter
	levelReads    *telemetry.Counter
	tierReads     *telemetry.Counter
}

func newStoreMetrics(r *zmesh.Registry) *storeMetrics {
	return &storeMetrics{
		objects:       r.Counter("server.store.objects"),
		artifactBytes: r.Counter("server.store.artifact_bytes"),
		dedupHits:     r.Counter("server.store.dedup_hits"),
		checkpoints:   r.Counter("server.store.checkpoints"),
		objectGets:    r.Counter("server.store.object_gets"),
		reads:         r.Counter("server.store.reads"),
		levelReads:    r.Counter("server.store.level_reads"),
		tierReads:     r.Counter("server.store.tier_reads"),
	}
}

// tstream is one quantity's stream inside a session: the validating decoder
// plus the manifest rows accumulated so far.
type tstream struct {
	dec    *zmesh.TemporalDecoder
	layout zmesh.Layout
	curve  string
	codec  string
	frames []wire.ManifestFrame
}

// tsession is one attached simulation run. Its mutex serializes frame
// appends per session (temporal order is the whole point); the registry
// mutex is never held across a decode. Lock order is always sess.mu before
// reg.mu (the frame handler poisons while appending); the registry therefore
// never touches sess.mu — gone is atomic and lastUsed is guarded by reg.mu.
type tsession struct {
	id string
	// gone latches when the session was evicted or poisoned while a handler
	// still held a pointer to it: the handler re-checks it under mu and
	// refuses to touch decoder state that is no longer registered.
	gone atomic.Bool
	// lastUsed is the idle clock, guarded by the registry mutex.
	lastUsed time.Time

	mu      sync.Mutex
	streams map[string]*tstream
	order   []string
}

// sessionRegistry owns the live sessions: TTL eviction is lazy (checked on
// every lookup and create), capacity eviction is oldest-first on create.
type sessionRegistry struct {
	mu       sync.Mutex
	sessions map[string]*tsession
	ttl      time.Duration
	max      int
	// now is the clock, a field so eviction tests can age sessions without
	// sleeping.
	now func() time.Time
	m   *sessionMetrics
}

func newSessionRegistry(ttl time.Duration, max int, m *sessionMetrics) *sessionRegistry {
	return &sessionRegistry{
		sessions: make(map[string]*tsession),
		ttl:      ttl,
		max:      max,
		now:      time.Now,
		m:        m,
	}
}

// evictLocked removes sess (already looked up) under reg.mu.
func (reg *sessionRegistry) evictLocked(sess *tsession) {
	sess.gone.Store(true)
	delete(reg.sessions, sess.id)
	reg.m.evicted.Inc()
	reg.m.active.Add(-1)
}

// sweepLocked evicts every session idle past the TTL.
func (reg *sessionRegistry) sweepLocked(now time.Time) {
	for _, sess := range reg.sessions {
		if now.Sub(sess.lastUsed) > reg.ttl {
			reg.evictLocked(sess)
		}
	}
}

// create mints a new session, evicting the oldest one if the registry is at
// capacity.
func (reg *sessionRegistry) create() (*tsession, error) {
	var raw [16]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return nil, fmt.Errorf("minting session id: %w", err)
	}
	sess := &tsession{
		id:      hex.EncodeToString(raw[:]),
		streams: make(map[string]*tstream),
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	now := reg.now()
	sess.lastUsed = now
	reg.sweepLocked(now)
	for len(reg.sessions) >= reg.max {
		var oldest *tsession
		for _, c := range reg.sessions {
			if oldest == nil || c.lastUsed.Before(oldest.lastUsed) {
				oldest = c
			}
		}
		reg.evictLocked(oldest)
	}
	reg.sessions[sess.id] = sess
	reg.m.created.Inc()
	reg.m.active.Inc()
	return sess, nil
}

// get returns the live session with the given id, refreshing its idle clock,
// or nil if it does not exist (never created, evicted, sealed, or lost to a
// restart — indistinguishable by design).
func (reg *sessionRegistry) get(id string) *tsession {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	now := reg.now()
	reg.sweepLocked(now)
	sess := reg.sessions[id]
	if sess == nil {
		return nil
	}
	sess.lastUsed = now
	return sess
}

// remove unregisters the session (seal path). It returns false if the
// session was already gone.
func (reg *sessionRegistry) remove(sess *tsession) bool {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, ok := reg.sessions[sess.id]; !ok {
		return false
	}
	sess.gone.Store(true)
	delete(reg.sessions, sess.id)
	reg.m.active.Add(-1)
	return true
}

// poison drops a session whose decoder state advanced past what the store
// persisted (an object write failed after a successful decode). Keeping it
// would fork the stream: the server would accept deltas against a frame no
// reader can ever fetch.
func (reg *sessionRegistry) poison(sess *tsession) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, ok := reg.sessions[sess.id]; ok {
		reg.evictLocked(sess)
	}
}

// errStoreDisabled is returned by every temporal endpoint when zmeshd runs
// without a store directory.
var errStoreDisabled = &httpError{
	status: http.StatusServiceUnavailable,
	err:    errors.New("temporal store disabled (start zmeshd with -store)"),
}

func (s *Server) requireStore() error {
	if s.artifacts == nil {
		return errStoreDisabled
	}
	return nil
}

// handleSessionCreate: POST /v1/sessions. The response carries the opaque
// session id every stream and seal call names.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) error {
	if err := s.requireStore(); err != nil {
		return err
	}
	sess, err := s.sessions.create()
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	w.WriteHeader(http.StatusCreated)
	return json.NewEncoder(w).Encode(wire.SessionResponse{SessionID: sess.id})
}

// sessionUnknown is the distinct signal for "re-create the session and force
// keyframes": 404 with a stable message. Clients treat it as the recovery
// trigger after an eviction or a daemon restart.
func sessionUnknown(id string) error {
	return notFound("session %s unknown or evicted", id)
}

// danglingDelta is the distinct signal for "this one stream lost its
// baseline": 409, narrower than sessionUnknown — the session itself is fine
// and the client recovers by re-sending this snapshot as a forced keyframe.
func danglingDelta(field string) error {
	return &httpError{
		status: http.StatusConflict,
		err:    fmt.Errorf("delta frame for field %q before any keyframe (send a keyframe to recover)", field),
	}
}

// seqMismatch is the distinct signal for "this stream's history diverged
// from the client's": 412, meaning neither a plain retry nor a keyframe at
// the client's sequence can reconcile — the client must resync (re-create
// the session) rather than risk a silently forked stream.
func seqMismatch(field string, want, got uint64) error {
	return &httpError{
		status: http.StatusPreconditionFailed,
		err:    fmt.Errorf("stream %q is at frame %d, client sent sequence %d (resync required)", field, want, got),
	}
}

// handleSessionFrame: POST /v1/sessions/{sid}/streams/{field}/frames, body =
// one ZMT1 temporal frame. The frame is decoded end-to-end before anything
// is persisted or committed, so a bad frame (corrupt payload, identity
// mismatch, codec failure) leaves both the decoder and the store untouched.
func (s *Server) handleSessionFrame(w http.ResponseWriter, r *http.Request) error {
	if err := s.requireStore(); err != nil {
		return err
	}
	sess := s.sessions.get(r.PathValue("sid"))
	if sess == nil {
		return sessionUnknown(r.PathValue("sid"))
	}
	fieldName := r.PathValue("field")

	sc := scratchPool.Get().(*requestScratch)
	defer putScratch(sc)
	var err error
	sc.body, err = s.readBody(r, sc.body)
	if err != nil {
		return badRequest(fmt.Errorf("reading frame: %w", err))
	}
	frame, err := wire.ParseTemporalFrame(sc.body)
	if err != nil {
		return badRequest(err)
	}
	if frame.Field != fieldName {
		return badRequest(fmt.Errorf("frame is for field %q, posted to stream %q", frame.Field, fieldName))
	}
	tc, err := zmesh.TemporalFromWire(frame)
	if err != nil {
		return badRequest(err)
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.gone.Load() {
		// Evicted between lookup and lock: same contract as never found.
		return sessionUnknown(sess.id)
	}
	st := sess.streams[fieldName]
	cur := 0
	if st != nil {
		cur = len(st.frames)
	}
	if seqStr := r.URL.Query().Get(wire.ParamSeq); seqStr != "" {
		seq, err := strconv.ParseUint(seqStr, 10, 32)
		if err != nil {
			return badRequest(fmt.Errorf("bad %s parameter %q", wire.ParamSeq, seqStr))
		}
		if st != nil && seq == uint64(cur-1) {
			// A retry of the frame the stream already ends with (same index,
			// same bytes) is acknowledged again without decoding or
			// appending: the first attempt's response was lost, not the
			// frame. Content addressing makes the comparison exact.
			last := &st.frames[cur-1]
			sum := sha256.Sum256(sc.body)
			if last.Object == hex.EncodeToString(sum[:]) {
				w.Header().Set("Content-Type", wire.ContentTypeJSON)
				return json.NewEncoder(w).Encode(wire.FrameResponse{
					Field:      fieldName,
					FrameIndex: cur - 1,
					Keyframe:   last.Keyframe,
					Forced:     last.Forced,
					Object:     last.Object,
					Bytes:      last.Bytes,
				})
			}
		}
		if seq != uint64(cur) {
			return seqMismatch(fieldName, uint64(cur), seq)
		}
	}
	if st == nil {
		if !frame.Keyframe {
			s.mSession.danglingDeltas.Inc()
			return danglingDelta(fieldName)
		}
		st = &tstream{dec: zmesh.NewTemporalDecoderFrom(s.store.decoder), layout: tc.Layout, curve: frame.Curve, codec: frame.Codec}
	} else if tc.Layout != st.layout || frame.Curve != st.curve || frame.Codec != st.codec {
		return badRequest(fmt.Errorf("frame identity %s/%s/%s does not match stream %s/%s/%s",
			frame.Layout, frame.Curve, frame.Codec, st.layout, st.curve, st.codec))
	}

	if _, err := st.dec.DecompressSnapshot(tc); err != nil {
		// Validate-first-commit-last: the decoder did not advance, the store
		// was never touched, and the client may retry the same frame index.
		return badRequest(fmt.Errorf("frame rejected: %w", err))
	}

	object, createdObj, err := s.artifacts.PutObject(sc.body)
	if err != nil {
		// The decoder committed but the frame bytes did not persist: any
		// future delta would chain off a frame no reader can fetch. Poison
		// the session so the client recovers through the keyframe path
		// instead of silently forking the stream.
		s.sessions.poison(sess)
		return fmt.Errorf("persisting frame (session dropped, re-create and send a keyframe): %w", err)
	}
	if createdObj {
		s.mStore.objects.Inc()
		s.mStore.artifactBytes.Add(int64(len(sc.body)))
	} else {
		s.mStore.dedupHits.Inc()
	}
	if sess.streams[fieldName] == nil {
		sess.streams[fieldName] = st
		sess.order = append(sess.order, fieldName)
	}
	st.frames = append(st.frames, wire.ManifestFrame{
		Keyframe:  frame.Keyframe,
		Forced:    frame.Forced,
		NumValues: frame.NumValues,
		Bound:     frame.Bound,
		Bytes:     int64(len(sc.body)),
		Object:    object,
	})
	s.mSession.frames.Inc()
	if frame.Forced {
		s.mSession.forcedKeyframes.Inc()
	}

	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	return json.NewEncoder(w).Encode(wire.FrameResponse{
		Field:      fieldName,
		FrameIndex: len(st.frames) - 1,
		Keyframe:   frame.Keyframe,
		Forced:     frame.Forced,
		Object:     object,
		Bytes:      int64(len(sc.body)),
	})
}

// handleSessionSeal: POST /v1/sessions/{sid}/seal. Sealing writes the
// manifest — the checkpoint becomes durable and readable — and retires the
// session; the returned checkpoint id is the manifest's content address.
func (s *Server) handleSessionSeal(w http.ResponseWriter, r *http.Request) error {
	if err := s.requireStore(); err != nil {
		return err
	}
	sess := s.sessions.get(r.PathValue("sid"))
	if sess == nil {
		return sessionUnknown(r.PathValue("sid"))
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.gone.Load() {
		return sessionUnknown(sess.id)
	}
	if len(sess.order) == 0 {
		return badRequest(errors.New("session has no frames to seal"))
	}
	m := &wire.Manifest{Fields: make([]wire.ManifestField, 0, len(sess.order))}
	frames, bytes := 0, int64(0)
	for _, name := range sess.order {
		st := sess.streams[name]
		m.Fields = append(m.Fields, wire.ManifestField{
			Name:   name,
			Layout: st.layout.String(),
			Curve:  st.curve,
			Codec:  st.codec,
			Frames: st.frames,
		})
		frames += len(st.frames)
		for _, fr := range st.frames {
			bytes += fr.Bytes
		}
	}
	encoded, err := wire.EncodeManifest(m)
	if err != nil {
		return fmt.Errorf("encoding manifest: %w", err)
	}
	id, err := s.artifacts.PutManifest(encoded)
	if err != nil {
		return fmt.Errorf("persisting manifest: %w", err)
	}
	// The manifest is durable; only now retire the session. A re-seal of an
	// already-removed session answers 404 like any other post-seal use.
	if !s.sessions.remove(sess) {
		return sessionUnknown(sess.id)
	}
	s.mSession.sealed.Inc()
	s.mStore.checkpoints.Inc()
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	return json.NewEncoder(w).Encode(wire.SealResponse{
		CheckpointID: id,
		Fields:       len(m.Fields),
		Frames:       frames,
		Bytes:        bytes,
	})
}
