// Command zmeshd is the zMesh compression daemon: a long-lived HTTP service
// that lets many clients share one hot recipe cache. Clients register a
// mesh structure once (POST /v1/meshes) and then stream fields through
// /v1/meshes/{id}/compress and /decompress (buffered float64-LE bodies),
// /compress-stream and /decompress-stream (chunked framing through bounded
// buffers, for fields too large to buffer), or /checkpoint (batch framing:
// every field of a snapshot in one request against one cached encoder).
// The daemon caches encoders and decoders by (structure-hash, layout,
// curve, codec), sheds load past its in-flight budget with 429 +
// Retry-After, and drains in-flight requests on SIGTERM/SIGINT before
// exiting. Compression accepts every registered layout, including "tac"
// (adaptive 3-D boxes) and "auto" (resolved from mesh dimension and codec
// by zmesh.ResolveAuto, so replicas answer identical bytes; the response
// headers record the resolved layout); decode paths require the concrete
// layout the compress response recorded and answer 400 for "auto".
//
// Temporal checkpoint store: with -store DIR the daemon persists sealed
// temporal checkpoints under DIR as content-addressed artifacts and opens
// the in-situ surface — POST /v1/sessions creates a temporal session, POST
// /v1/sessions/{sid}/streams/{field}/frames appends keyframe/delta frames,
// POST /v1/sessions/{sid}/seal makes the checkpoint durable, and GET
// /v1/checkpoints/{id}[/fields/{name}][?levels=K|tiers=K] serves full or
// progressive (coarse-levels-first) reads that survive daemon restarts.
// Sessions idle past -session-ttl are evicted; clients recover by
// re-attaching with a forced keyframe. Without -store those endpoints
// answer 503.
//
// Telemetry (server.*, encode.*, decode.*, recipe.*) is served on
// /debug/vars under the "zmeshd" key.
//
// Cluster mode: given -cluster-nodes (the full membership as advertised
// URLs) and -cluster-self (this replica's entry in that list), the daemon
// becomes one shard of a consistent-hash cluster — it owns the meshes the
// ring places on it, answers 421 for the rest, and heals an empty cache by
// fetching structure bytes from peer owners (internal/cluster, DESIGN.md
// "Cluster architecture").
//
// Usage:
//
//	zmeshd [-addr :8080] [-max-inflight N] [-max-meshes N] [-max-encoders N]
//	       [-retry-after 1s] [-max-body 1073741824] [-drain-timeout 30s]
//	       [-store DIR] [-session-ttl 15m] [-max-sessions 256]
//	       [-cluster-nodes url1,url2,... -cluster-self urlN]
//	       [-replication 2] [-vnodes 64] [-peer-timeout 5s]
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	zmesh "repro"
	"repro/internal/cluster"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		maxInflight  = flag.Int("max-inflight", 0, "admission budget: concurrent heavy requests (0 = 2×GOMAXPROCS)")
		maxMeshes    = flag.Int("max-meshes", 0, "registered-mesh LRU capacity (0 = default 64)")
		maxEncoders  = flag.Int("max-encoders", 0, "encoder LRU capacity (0 = default 256)")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on shed (429) responses")
		maxBody      = flag.Int64("max-body", 1<<30, "request body cap in bytes")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "maximum time to wait for in-flight requests on shutdown")
		storeDir     = flag.String("store", "", "temporal checkpoint store directory (empty = temporal endpoints disabled)")
		sessionTTL   = flag.Duration("session-ttl", 0, "evict temporal sessions idle past this duration (0 = default 15m)")
		maxSessions  = flag.Int("max-sessions", 0, "concurrently attached temporal sessions (0 = default 256)")
		clusterNodes = flag.String("cluster-nodes", "", "comma-separated advertised URLs of every cluster replica (empty = single-node)")
		clusterSelf  = flag.String("cluster-self", "", "this replica's advertised URL; must appear in -cluster-nodes")
		replication  = flag.Int("replication", 0, "owners per mesh in cluster mode (0 = default 2)")
		vnodes       = flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = default 64)")
		peerTimeout  = flag.Duration("peer-timeout", 0, "per-peer structure fetch timeout (0 = default 5s)")
	)
	flag.Parse()
	cfg := server.Config{
		MaxMeshes:    *maxMeshes,
		MaxEncoders:  *maxEncoders,
		MaxInflight:  *maxInflight,
		RetryAfter:   *retryAfter,
		MaxBodyBytes: *maxBody,
		Registry:     zmesh.NewRegistry(),
		StoreDir:     *storeDir,
		SessionTTL:   *sessionTTL,
		MaxSessions:  *maxSessions,
	}
	if err := applyClusterFlags(&cfg, *clusterNodes, *clusterSelf, *vnodes, *replication, *peerTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "zmeshd: %v\n", err)
		os.Exit(2)
	}
	if err := run(*addr, cfg, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "zmeshd: %v\n", err)
		os.Exit(1)
	}
}

// applyClusterFlags validates the cluster flag set and installs the ring
// into cfg. Both -cluster-nodes and -cluster-self must be given together.
func applyClusterFlags(cfg *server.Config, nodesCSV, self string, vnodes, replication int, peerTimeout time.Duration) error {
	if nodesCSV == "" && self == "" {
		return nil // single-node daemon
	}
	if nodesCSV == "" || self == "" {
		return fmt.Errorf("cluster mode needs both -cluster-nodes and -cluster-self")
	}
	var nodes []string
	for _, n := range strings.Split(nodesCSV, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodes = append(nodes, n)
		}
	}
	ring, err := cluster.New(nodes, vnodes, replication)
	if err != nil {
		return fmt.Errorf("-cluster-nodes: %w", err)
	}
	if !ring.Contains(self) {
		return fmt.Errorf("-cluster-self %q is not in -cluster-nodes %q", self, nodesCSV)
	}
	cfg.Ring = ring
	cfg.Self = self
	cfg.PeerTimeout = peerTimeout
	return nil
}

func run(addr string, cfg server.Config, drainTimeout time.Duration) error {
	s := server.New(cfg)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	// The listen line goes to stdout so supervisors (and the e2e smoke
	// driver) can scrape the bound address when -addr requests port 0.
	fmt.Printf("zmeshd: listening on http://%s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err // listener failed before any signal
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "zmeshd: %s received, draining (timeout %s)\n", got, drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	fmt.Fprintln(os.Stderr, "zmeshd: drained, exiting")
	return nil
}
