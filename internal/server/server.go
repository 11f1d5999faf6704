// Package server implements zmeshd: an HTTP compression service around the
// zMesh pipeline. A client registers a serialized mesh structure once and
// then streams fields through compress/decompress endpoints; the server
// amortizes recipe construction across requests with content-addressed
// encoder/decoder caches (the paper's overhead claim, made cross-process),
// sheds load past a bounded in-flight budget with 429 + Retry-After, and
// drains gracefully on shutdown. See DESIGN.md "Service architecture".
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	zmesh "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	cstore "repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// ExpvarName is the expvar key the server's telemetry registry is published
// under (visible on /debug/vars).
const ExpvarName = "zmeshd"

// VarsKey is the per-replica expvar key: "zmeshd.<listen-address>". The
// bare ExpvarName is process-global and always tracks the newest server —
// fine for a daemon, useless when a test or harness runs N replicas in one
// process (or scrapes N daemons generically). Serve additionally publishes
// the registry under this address-scoped key, so every replica's counters
// stay reachable without collisions; vars_test.go pins the shape.
func VarsKey(listenAddr string) string { return ExpvarName + "." + listenAddr }

// Config sizes the server. The zero value is usable: every field has a
// production-sane default applied by New.
type Config struct {
	// MaxMeshes bounds the registered-mesh LRU (default 64). Each mesh
	// caches at most one restore recipe per (layout, curve) and one encoder
	// per codec on them. Evicted meshes return 404 until re-registered.
	MaxMeshes int
	// MaxInflight is the admission budget: at most this many register,
	// compress or decompress requests run concurrently; the rest are shed
	// with 429 (default 2 × GOMAXPROCS).
	MaxInflight int
	// RetryAfter is the hint returned with 429 responses, rounded up to
	// whole seconds for the Retry-After header (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps request bodies (default 1 GiB).
	MaxBodyBytes int64
	// Registry receives all server, pipeline and recipe telemetry. New
	// creates a private registry when nil; pass one to share it with
	// zmesh.PublishMetrics / expvar.
	Registry *zmesh.Registry

	// Ring enables cluster mode: the consistent-hash placement this replica
	// shares with every peer (see internal/cluster and peer.go). nil keeps
	// the single-node behavior of earlier releases.
	Ring *cluster.Ring
	// Self is this replica's advertised base URL. Required with Ring, and
	// must be a ring member — placement decisions compare it against owner
	// lists verbatim.
	Self string
	// PeerTimeout bounds each peer structure fetch (default 5s). Under it,
	// a stalled peer turns into a clean 502 instead of a wedged request.
	PeerTimeout time.Duration
	// PeerClient overrides the HTTP client used for peer fetches (tests
	// inject failure modes here). Default: a dedicated http.Client.
	PeerClient *http.Client

	// StoreDir enables the temporal checkpoint store: sealed checkpoints are
	// persisted under this directory (see internal/store) and the
	// /v1/sessions + /v1/checkpoints endpoints come alive. Empty keeps the
	// stateless behavior of earlier releases (those endpoints answer 503).
	StoreDir string
	// SessionTTL evicts temporal sessions idle past this duration (default
	// 15m). Eviction is safe by construction: the client recovers by
	// re-creating the session and sending forced keyframes.
	SessionTTL time.Duration
	// MaxSessions bounds concurrently attached temporal sessions (default
	// 256); past it, the longest-idle session is evicted.
	MaxSessions int
}

func (c *Config) fillDefaults() {
	if c.MaxMeshes <= 0 {
		c.MaxMeshes = 64
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 30
	}
	if c.Registry == nil {
		c.Registry = zmesh.NewRegistry()
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = defaultPeerTimeout
	}
	if c.PeerClient == nil {
		c.PeerClient = &http.Client{}
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 15 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
}

// endpointMetrics is the per-endpoint counter/timer set, resolved once at
// construction: server.<ep>.requests|errors|shed|inflight plus a latency
// timer. inflight is a gauge expressed as a counter (+1 on entry, −1 on
// exit).
type endpointMetrics struct {
	requests *telemetry.Counter
	errors   *telemetry.Counter
	shed     *telemetry.Counter
	inflight *telemetry.Counter
	latency  *telemetry.Timer
}

func newEndpointMetrics(r *zmesh.Registry, ep string) *endpointMetrics {
	return &endpointMetrics{
		requests: r.Counter("server." + ep + ".requests"),
		errors:   r.Counter("server." + ep + ".errors"),
		shed:     r.Counter("server." + ep + ".shed"),
		inflight: r.Counter("server." + ep + ".inflight"),
		latency:  r.Timer("server." + ep + ".latency"),
	}
}

// Server is the zmeshd HTTP service. Create with New, mount Handler (or use
// Serve/ListenAndServe), stop with Shutdown.
type Server struct {
	cfg   Config
	reg   *zmesh.Registry
	store *store
	sem   chan struct{}
	mux   *http.ServeMux

	// srvMu guards the Serve/Shutdown lifecycle: srv is written by Serve
	// and read by Shutdown, and a Shutdown that lands before Serve must
	// keep the later Serve from starting (shutdown latches).
	srvMu    sync.Mutex
	srv      *http.Server
	shutdown bool

	mRegister        *endpointMetrics
	mCompress        *endpointMetrics
	mDecompress      *endpointMetrics
	mCheckpoint      *endpointMetrics
	checkpointFields *telemetry.Counter
	mPeer            *peerMetrics
	peerClient       *http.Client

	// Temporal checkpoint store (nil unless Config.StoreDir is set) and its
	// session registry + counters. The counters exist even when the store is
	// disabled so /debug/vars always carries the full key shape.
	artifacts       *cstore.Store
	sessions        *sessionRegistry
	mSession        *sessionMetrics
	mStore          *storeMetrics
	mSessionCreate  *endpointMetrics
	mSessionFrame   *endpointMetrics
	mSessionSeal    *endpointMetrics
	mCheckpointRead *endpointMetrics
}

// New constructs a server from cfg (zero-value fields get defaults).
// Cluster mode (cfg.Ring != nil) requires cfg.Self to be a ring member;
// a violation is a deployment bug every request would hit, so it panics
// here rather than serving 421s forever.
func New(cfg Config) *Server {
	cfg.fillDefaults()
	if cfg.Ring != nil && !cfg.Ring.Contains(cfg.Self) {
		panic(fmt.Sprintf("server: Self %q is not a member of the configured ring %v", cfg.Self, cfg.Ring.Nodes()))
	}
	s := &Server{
		cfg:              cfg,
		reg:              cfg.Registry,
		store:            newStore(cfg.MaxMeshes, cfg.Registry),
		sem:              make(chan struct{}, cfg.MaxInflight),
		mRegister:        newEndpointMetrics(cfg.Registry, "register"),
		mCompress:        newEndpointMetrics(cfg.Registry, "compress"),
		mDecompress:      newEndpointMetrics(cfg.Registry, "decompress"),
		mCheckpoint:      newEndpointMetrics(cfg.Registry, "checkpoint"),
		checkpointFields: cfg.Registry.Counter("server.checkpoint.fields"),
		mPeer:            newPeerMetrics(cfg.Registry),
		peerClient:       cfg.PeerClient,
		mSession:         newSessionMetrics(cfg.Registry),
		mStore:           newStoreMetrics(cfg.Registry),
		mSessionCreate:   newEndpointMetrics(cfg.Registry, "session_create"),
		mSessionFrame:    newEndpointMetrics(cfg.Registry, "session_frame"),
		mSessionSeal:     newEndpointMetrics(cfg.Registry, "session_seal"),
		mCheckpointRead:  newEndpointMetrics(cfg.Registry, "checkpoint_read"),
	}
	s.sessions = newSessionRegistry(cfg.SessionTTL, cfg.MaxSessions, s.mSession)
	if cfg.StoreDir != "" {
		// A store directory that cannot be opened is a deployment bug every
		// session would hit; fail loudly like a ring misconfiguration.
		artifacts, err := cstore.Open(cfg.StoreDir)
		if err != nil {
			panic(fmt.Sprintf("server: opening artifact store: %v", err))
		}
		s.artifacts = artifacts
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+wire.PathMeshes, s.instrumented(s.mRegister, s.handleRegister))
	mux.HandleFunc("POST "+wire.PathMeshes+"/{id}/compress", s.instrumented(s.mCompress, s.handleCompress))
	mux.HandleFunc("POST "+wire.PathMeshes+"/{id}/decompress", s.instrumented(s.mDecompress, s.handleDecompress))
	mux.HandleFunc("POST "+wire.PathMeshes+"/{id}/checkpoint", s.instrumented(s.mCheckpoint, s.handleCheckpoint))
	// Temporal checkpoint store endpoints (alive only with Config.StoreDir;
	// otherwise they answer 503 so clients get an explicit signal rather
	// than a 404 that looks like a routing bug).
	mux.HandleFunc("POST "+wire.PathSessions, s.instrumented(s.mSessionCreate, s.handleSessionCreate))
	mux.HandleFunc("POST "+wire.PathSessions+"/{sid}/streams/{field}/frames", s.instrumented(s.mSessionFrame, s.handleSessionFrame))
	mux.HandleFunc("POST "+wire.PathSessions+"/{sid}/seal", s.instrumented(s.mSessionSeal, s.handleSessionSeal))
	mux.HandleFunc("GET "+wire.PathCheckpoints+"/{id}", s.instrumented(s.mCheckpointRead, s.handleCheckpointInfo))
	mux.HandleFunc("GET "+wire.PathCheckpoints+"/{id}/fields/{field}", s.instrumented(s.mCheckpointRead, s.handleCheckpointField))
	mux.HandleFunc("GET "+wire.PathCheckpoints+"/{id}/structure", s.instrumented(s.mCheckpointRead, s.handleCheckpointStructure))
	// Cluster-mode endpoints. Both bypass admission control on purpose:
	// ring fetches are how clients recover from 421s and structure fetches
	// are how restarted replicas heal, so neither may be starved by a 429
	// storm on the data endpoints.
	mux.HandleFunc("GET "+wire.PathMeshes+"/{id}/structure", s.handleStructure)
	mux.HandleFunc("GET "+wire.PathRing, s.handleRing)
	mux.HandleFunc("GET "+wire.PathHealth, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		_, _ = io.WriteString(w, "ok\n")
	})
	mux.Handle("GET "+wire.PathVars, expvar.Handler())
	s.mux = mux
	// Publish the registry so /debug/vars carries the server metrics. A
	// later New (tests create many servers) retargets the name to the
	// newest registry.
	telemetry.Publish(ExpvarName, cfg.Registry)
	return s
}

// Registry exposes the server's telemetry registry (the one Config.Registry
// supplied, or the private one New created).
func (s *Server) Registry() *zmesh.Registry { return s.reg }

// Handler returns the full route table, including /healthz and /debug/vars.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on ln until Shutdown. It returns
// http.ErrServerClosed after a clean shutdown, mirroring net/http — and
// immediately (closing ln) when Shutdown already ran, so a Serve racing a
// Shutdown can never resurrect the server.
func (s *Server) Serve(ln net.Listener) error {
	s.srvMu.Lock()
	if s.shutdown {
		s.srvMu.Unlock()
		ln.Close()
		return http.ErrServerClosed
	}
	if s.srv == nil {
		s.srv = &http.Server{Handler: s.mux}
	}
	srv := s.srv
	s.srvMu.Unlock()
	// Now the bound address is known, namespace this replica's metrics by
	// it (see VarsKey) so N replicas never collide on one expvar page.
	telemetry.Publish(VarsKey(ln.Addr().String()), s.reg)
	return srv.Serve(ln)
}

// Shutdown drains the server: no new connections are accepted, in-flight
// requests run to completion (subject to ctx), then Serve returns. This is
// what zmeshd runs on SIGTERM. Shutdown latches: once called, any Serve —
// concurrent or later — refuses to start.
func (s *Server) Shutdown(ctx context.Context) error {
	s.srvMu.Lock()
	s.shutdown = true
	srv := s.srv
	s.srvMu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Shutdown(ctx)
}

// instrumented wraps a handler with admission control and the endpoint's
// request/inflight/latency/error accounting. Shed requests never reach the
// handler: they cost one semaphore poll and a small JSON response.
func (s *Server) instrumented(m *endpointMetrics, h func(http.ResponseWriter, *http.Request) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		m.requests.Inc()
		select {
		case s.sem <- struct{}{}:
		default:
			m.shed.Inc()
			secs := int64(s.cfg.RetryAfter.Seconds())
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
			writeError(w, http.StatusTooManyRequests, errors.New("server at capacity"))
			return
		}
		defer func() { <-s.sem }()
		m.inflight.Inc()
		defer m.inflight.Add(-1)
		t0 := time.Now()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		if err := h(w, r); err != nil {
			m.errors.Inc()
			// A handler that already committed its response (a checkpoint
			// read after the first body byte) signals failure on the wire
			// itself — a truncated body or a batch stream with no
			// terminator — and a JSON error appended to a half-written
			// binary body would only corrupt it further.
			if !errors.Is(err, errCommitted) {
				writeError(w, statusFor(err), err)
			}
		}
		m.latency.Since(t0)
	}
}

// httpError carries an explicit status through the handler return path.
type httpError struct {
	status int
	err    error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(err error) error { return &httpError{status: http.StatusBadRequest, err: err} }

// errCommitted marks a handler failure that happened after the response
// status and some body bytes were already written: instrumented() counts
// it but must not append a JSON error to the committed body. The client
// detects the failure as a truncated body (io.ErrUnexpectedEOF from the
// transport, or a batch stream without its terminator).
var errCommitted = errors.New("response already committed")

// committed wraps err so instrumented() skips writeError.
func committed(err error) error { return fmt.Errorf("%w: %w", errCommitted, err) }

func notFound(format string, args ...any) error {
	return &httpError{status: http.StatusNotFound, err: fmt.Errorf(format, args...)}
}

func statusFor(err error) int {
	// MaxBytesError resolves first: handlers wrap body-read failures in
	// badRequest, and the over-limit case must surface as 413, not the
	// wrapper's 400.
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	var he *httpError
	if errors.As(err, &he) {
		return he.status
	}
	return http.StatusInternalServerError
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(wire.ErrorResponse{Error: err.Error()})
}

// requestScratch is the pooled per-request state of the compress/decompress
// hot paths and of checkpoint field reads: the body buffer, the float buffer
// (a compress body's decoded values when the body cannot be viewed
// zero-copy, or a checkpoint read's restored values), the pipeline Scratch,
// and the response artifact shell. Pooling them makes steady-state requests allocate only
// what the pipeline itself must produce (the wrapped payload); see the
// AllocsPerRun pins in alloc_test.go and DESIGN.md "Hot path".
type requestScratch struct {
	body     []byte
	values   []float64
	zs       zmesh.Scratch
	artifact zmesh.Compressed
}

var scratchPool = sync.Pool{New: func() any { return new(requestScratch) }}

// maxPooledBody caps the total bytes a scratch may carry back into the
// pool: one unusually large request must not pin its buffers for the
// pool's lifetime. The audit covers every pooled buffer — the body, the
// float decode buffer, and the pipeline Scratch's internal buffers — not
// just the body; a big-endian or misaligned request grows sc.values to the
// full field size without ever touching sc.body, and before this cap
// applied to all of them such a request pinned its float buffers forever.
// A variable (not a const) so the regression test can lower it.
var maxPooledBody = 64 << 20

// pinnedBytes is the total capacity the scratch would pin in the pool.
func (sc *requestScratch) pinnedBytes() int {
	return cap(sc.body) + 8*cap(sc.values) + sc.zs.PinnedBytes()
}

func putScratch(sc *requestScratch) {
	if sc.pinnedBytes() > maxPooledBody {
		*sc = requestScratch{}
	}
	sc.artifact = zmesh.Compressed{}
	scratchPool.Put(sc)
}

// readBodySeed caps how much buffer a declared Content-Length may allocate
// up front. A client can declare any length and then send nothing, so the
// declaration only seeds the buffer up to this bound; past it the buffer
// grows geometrically as bytes actually arrive — a 1 GiB lie costs one
// 1 MiB allocation, not a 1 GiB one.
const readBodySeed = 1 << 20

// readBody reads a request body of unknown size — a decompress payload —
// into buf (grown as needed, reused otherwise). A declared Content-Length beyond the server's cap fails
// before any allocation; bodies without one are still stopped by the
// MaxBytesReader installed in instrumented(). Either way the limit error
// unwraps to *http.MaxBytesError, which statusFor maps to 413.
func (s *Server) readBody(r *http.Request, buf []byte) ([]byte, error) {
	if r.ContentLength > s.cfg.MaxBodyBytes {
		return buf, &http.MaxBytesError{Limit: s.cfg.MaxBodyBytes}
	}
	if n := r.ContentLength; n > 0 && int64(cap(buf)) < n {
		seed := n
		if seed > readBodySeed {
			seed = readBodySeed
		}
		if cap(buf) < int(seed) {
			buf = make([]byte, 0, seed)
		}
	}
	buf = buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// readValues reads a compress body, which is exactly the registered mesh's
// nCells float64 values, into buf (reused when large enough, sized exactly
// once otherwise). The size is known before the first byte: a mesh too large
// for MaxBodyBytes answers 413, and a declared Content-Length other than
// 8 × nCells answers 400 without reading the body. Under chunked
// Transfer-Encoding the body must end exactly there, too. The mesh was
// admitted under MeshFromStructure's guard, so sizing buf from it is no
// allocation bomb, and nothing grows geometrically.
func (s *Server) readValues(r *http.Request, buf []byte, nCells int) ([]byte, error) {
	n := 8 * int64(nCells)
	if n > s.cfg.MaxBodyBytes || r.ContentLength > s.cfg.MaxBodyBytes {
		return buf, &http.MaxBytesError{Limit: s.cfg.MaxBodyBytes}
	}
	if r.ContentLength >= 0 && r.ContentLength != n {
		return buf, badRequest(fmt.Errorf("body is %d bytes, the mesh's %d cells take %d", r.ContentLength, nCells, n))
	}
	if int64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r.Body, buf); err != nil {
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			err = fmt.Errorf("body ends before the mesh's %d cells (%d bytes)", nCells, n)
		}
		return buf, badRequest(fmt.Errorf("reading values: %w", err))
	}
	var extra [1]byte
	switch _, err := io.ReadFull(r.Body, extra[:]); err {
	case io.EOF:
		return buf, nil
	case nil:
		return buf, badRequest(fmt.Errorf("body runs past the mesh's %d cells (%d bytes)", nCells, n))
	default:
		return buf, badRequest(fmt.Errorf("reading values: %w", err))
	}
}

// handleRegister: POST /v1/meshes, body = Mesh.Structure bytes. In cluster
// mode a replica only accepts registrations it owns: answering 421 instead
// of silently caching a misrouted structure keeps stale clients
// self-correcting (they refresh the ring) and keeps every shard holding
// only its K/N share — the point of sharding. Re-registering a mesh this
// replica already holds stays a 200 regardless of current ownership.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) error {
	structure, err := io.ReadAll(r.Body)
	if err != nil {
		return badRequest(fmt.Errorf("reading structure: %w", err))
	}
	if len(structure) == 0 {
		return badRequest(errors.New("empty structure body"))
	}
	if s.cfg.Ring != nil {
		if id := cluster.MeshID(structure); !s.cfg.Ring.IsOwner(s.cfg.Self, id) {
			if _, ok := s.store.lookup(id); !ok {
				s.mPeer.misdirected.Inc()
				return misdirected(id)
			}
		}
	}
	entry, created, err := s.store.register(structure)
	if err != nil {
		return badRequest(fmt.Errorf("decoding structure: %w", err))
	}
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	w.Header().Set("Content-Type", wire.ContentTypeJSON)
	w.WriteHeader(status)
	return json.NewEncoder(w).Encode(wire.RegisterResponse{
		MeshID:  entry.id,
		Blocks:  entry.mesh.NumBlocks(),
		Cells:   entry.mesh.NumBlocks() * entry.mesh.CellsPerBlock(),
		Created: created,
	})
}

// pipelineParams parses the shared layout/curve query parameters.
func pipelineParams(r *http.Request) (zmesh.Options, error) {
	opt := zmesh.DefaultOptions()
	q := r.URL.Query()
	if v := q.Get(wire.ParamLayout); v != "" {
		layout, err := core.ParseLayout(v)
		if err != nil {
			return opt, badRequest(err)
		}
		opt.Layout = layout
	}
	if v := q.Get(wire.ParamCurve); v != "" {
		opt.Curve = v
	}
	if v := q.Get(wire.ParamCodec); v != "" {
		opt.Codec = v
	}
	return opt, nil
}

// requireConcreteLayout rejects the LayoutAuto pseudo-layout where only a
// concrete serialization order makes sense. Auto is resolved when an encoder
// is built — every artifact records the concrete layout — so a request naming
// it on a decode path is a client error and must surface as an explicit 400,
// never a 500 or a silent fallback to some default order.
func requireConcreteLayout(opt zmesh.Options, context string) error {
	if opt.Layout == zmesh.LayoutAuto {
		return badRequest(fmt.Errorf("layout %q is encode-only (%s): %w",
			opt.Layout, context, zmesh.ErrAutoLayout))
	}
	return nil
}

// handleCompress: POST /v1/meshes/{id}/compress?field=&layout=&curve=&codec=&bound=,
// body = float64-LE level-order values; response = container-enveloped
// payload with X-Zmesh-* metadata headers.
func (s *Server) handleCompress(w http.ResponseWriter, r *http.Request) error {
	enc, nCells, bound, fieldName, err := s.fieldParams(r)
	if err != nil {
		return err
	}
	sc := scratchPool.Get().(*requestScratch)
	defer putScratch(sc)
	sc.body, err = s.readValues(r, sc.body, nCells)
	if err != nil {
		return err
	}
	if err := r.Context().Err(); err != nil {
		// Client gone: skip the pipeline; the error still counts toward the
		// endpoint metrics (the response is unreachable either way).
		return err
	}
	c, err := compressStream(enc, fieldName, nCells, sc.body, bound, sc)
	if err != nil {
		return err
	}
	artifactHeaders(w.Header(), wire.ContentTypeBinary, c)
	w.Header().Set("Content-Length", strconv.Itoa(len(c.Payload)))
	_, err = w.Write(c.Payload)
	return err
}

// artifactHeaders describes one artifact in the response headers of the
// single-field compress handlers.
func artifactHeaders(h http.Header, contentType string, c *zmesh.Compressed) {
	h.Set("Content-Type", contentType)
	h.Set(wire.HeaderField, c.FieldName)
	h.Set(wire.HeaderLayout, c.Layout.String())
	h.Set(wire.HeaderCurve, c.Curve)
	h.Set(wire.HeaderCodec, c.Codec)
	h.Set(wire.HeaderNumValues, strconv.Itoa(c.NumValues))
}

// compressStream is the allocation-audited core of handleCompress: wire
// body → value stream → artifact, skipping Field materialization entirely.
// On little-endian builds an aligned body is handed to the pipeline as a
// zero-copy float view; otherwise the values are decoded into the pooled
// buffer. Separated from the handler so the AllocsPerRun pins can audit it
// without the net/http plumbing.
func compressStream(enc *zmesh.Encoder, fieldName string, nCells int, body []byte, bound zmesh.Bound, sc *requestScratch) (*zmesh.Compressed, error) {
	values, ok := wire.ViewFloats(body)
	if !ok {
		var err error
		values, err = wire.DecodeFloatsInto(sc.values, body)
		if err != nil {
			return nil, badRequest(err)
		}
		sc.values = values
	}
	if len(values) != nCells {
		return nil, badRequest(fmt.Errorf("stream has %d values, mesh has %d cells", len(values), nCells))
	}
	return enc.CompressValuesScratch(fieldName, values, bound, &sc.zs)
}

// handleDecompress: POST /v1/meshes/{id}/decompress?field=&layout=&curve=,
// body = container-enveloped payload; response = float64-LE level-order
// values. The codec is taken from the envelope itself.
func (s *Server) handleDecompress(w http.ResponseWriter, r *http.Request) error {
	entry, shell, err := s.decodeParams(r)
	if err != nil {
		return err
	}
	sc := scratchPool.Get().(*requestScratch)
	defer putScratch(sc)
	sc.body, err = s.readBody(r, sc.body)
	if err != nil {
		return badRequest(fmt.Errorf("reading payload: %w", err))
	}
	out, err := decodeBody(w, r, entry, shell, sc)
	if err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// decodeParams resolves the front half of the decompress handler: mesh
// lookup, pipeline options (a concrete layout), and the artifact shell the
// payload will be attached to.
func (s *Server) decodeParams(r *http.Request) (*meshEntry, zmesh.Compressed, error) {
	entry, err := s.resolveMesh(r.Context(), r.PathValue("id"))
	if err != nil {
		return nil, zmesh.Compressed{}, err
	}
	opt, err := pipelineParams(r)
	if err != nil {
		return nil, zmesh.Compressed{}, err
	}
	if err := requireConcreteLayout(opt, "decode with the layout the compress response recorded"); err != nil {
		return nil, zmesh.Compressed{}, err
	}
	fieldName := r.URL.Query().Get(wire.ParamField)
	if fieldName == "" {
		fieldName = "field"
	}
	// Codec and NumValues stay zero: the container envelope is authoritative
	// and the decoder validates against it.
	return entry, zmesh.Compressed{FieldName: fieldName, Layout: opt.Layout, Curve: opt.Curve}, nil
}

// decodeBody is the back half of the decompress handler, from the payload
// read into sc.body to the response bytes (headers set, nothing written
// yet).
func decodeBody(w http.ResponseWriter, r *http.Request, entry *meshEntry, shell zmesh.Compressed, sc *requestScratch) ([]byte, error) {
	if len(sc.body) == 0 {
		return nil, badRequest(errors.New("empty payload body"))
	}
	if err := r.Context().Err(); err != nil {
		return nil, err // client gone; keep the cancellation out of 4xx stats
	}
	sc.artifact = shell
	sc.artifact.Payload = sc.body
	values, err := entry.dec.DecompressValuesScratch(&sc.artifact, &sc.zs)
	if err != nil {
		return nil, badRequest(err) // corrupt envelope/payload is the client's fault
	}
	h := w.Header()
	h.Set("Content-Type", wire.ContentTypeBinary)
	h.Set(wire.HeaderField, shell.FieldName)
	h.Set(wire.HeaderNumValues, strconv.Itoa(len(values)))
	// The response bytes are the values themselves on little-endian builds;
	// the portable fallback encodes into the (already consumed) body buffer.
	out, ok := wire.ViewBytes(values)
	if !ok {
		sc.body = wire.AppendFloats(sc.body[:0], values)
		out = sc.body
	}
	h.Set("Content-Length", strconv.Itoa(len(out)))
	return out, nil
}
