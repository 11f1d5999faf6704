package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/tools/harness"
)

// faultProxy is the fault-injection point of the harness: every replica's
// advertised URL resolves to one of these, which forwards TCP to the real
// zmeshd process. Because replicas reach each other through their
// advertised URLs, peer structure fetches flow through the proxy too — so
// the harness can drop or delay peer traffic without touching the daemon.
//
// Faults are armed atomically:
//
//	delay:    every new connection sleeps d before the backend dial
//	dropNext: the next n connections are closed without forwarding
//
// A SIGKILLed backend needs no proxy support: the forward dial fails and
// the client-side connection closes, which the routing client treats as a
// transport failure and fails over.
type faultProxy struct {
	ln       net.Listener
	backend  atomic.Pointer[string] // real process address, retargeted on restart
	delay    atomic.Int64           // ns added before each backend dial
	dropNext atomic.Int64           // connections left to drop on arrival
}

func newFaultProxy() (*faultProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &faultProxy{ln: ln}
	go p.serve()
	return p, nil
}

func (p *faultProxy) url() string { return "http://" + p.ln.Addr().String() }

func (p *faultProxy) setBackend(addr string) { p.backend.Store(&addr) }

func (p *faultProxy) setDelay(d time.Duration) { p.delay.Store(int64(d)) }

func (p *faultProxy) dropNextConns(n int64) { p.dropNext.Store(n) }

func (p *faultProxy) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.handle(conn)
	}
}

func (p *faultProxy) handle(conn net.Conn) {
	for {
		n := p.dropNext.Load()
		if n <= 0 {
			break
		}
		if p.dropNext.CompareAndSwap(n, n-1) {
			conn.Close()
			return
		}
	}
	if d := p.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	addr := p.backend.Load()
	if addr == nil {
		conn.Close()
		return
	}
	back, err := net.DialTimeout("tcp", *addr, 5*time.Second)
	if err != nil {
		conn.Close()
		return
	}
	go pipe(back, conn)
	pipe(conn, back)
}

// pipe copies one direction and half-closes the write side when the source
// is done, so HTTP keep-alive shutdown propagates cleanly.
func pipe(dst, src net.Conn) {
	_, _ = io.Copy(dst, src)
	if tc, ok := dst.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	} else {
		_ = dst.Close()
	}
}

// replica is one zmeshd process plus its fault proxy. The advertised URL
// (proxy.url()) is stable across restarts; the process binds an ephemeral
// port each boot and the proxy is retargeted at it.
type replica struct {
	idx       int
	bin       string
	proxy     *faultProxy
	extraArgs []string

	d *harness.Daemon // the current process; nil before the first start
}

// start boots the zmeshd process, waits for its listen announcement, and
// points the proxy at it. clusterNodes/self are advertised (proxy) URLs.
func (r *replica) start(ctx context.Context, clusterNodes []string, replication, vnodes int) error {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-cluster-nodes", strings.Join(clusterNodes, ","),
		"-cluster-self", r.proxy.url(),
		"-replication", fmt.Sprint(replication),
		"-vnodes", fmt.Sprint(vnodes),
		"-peer-timeout", "2s",
		"-retry-after", "100ms",
		"-drain-timeout", "10s",
	}
	d, err := harness.Start(ctx, r.bin, append(args, r.extraArgs...)...)
	if err != nil {
		return fmt.Errorf("replica %d: %w", r.idx, err)
	}
	r.d = d
	r.proxy.setBackend(d.Addr())
	return nil
}

// vars scrapes the replica's /debug/vars through its proxy and returns the
// snapshot under its namespaced key (server.VarsKey of the real listen
// address) — asserting, as it goes, that the key exists at all.
func (r *replica) vars(ctx context.Context) (*telemetry.Snapshot, error) {
	snap, err := harness.Vars(ctx, r.proxy.url(), server.VarsKey(r.d.Addr()))
	if err != nil {
		return nil, fmt.Errorf("replica %d: %w", r.idx, err)
	}
	return snap, nil
}

// awaitHealthy polls the replica's /healthz through the proxy — the
// no-sleeps way to sequence phases on real daemon state.
func (r *replica) awaitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := hc.Get(r.proxy.url() + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("replica %d not healthy within %s", r.idx, timeout)
}
