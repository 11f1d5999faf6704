// Package harness is the daemon-lifecycle half the end-to-end harnesses
// (e2esmoke, temporale2e, clusterharness) share: boot a built zmeshd binary
// and scrape its listen line, stop it with SIGTERM requiring a clean drain,
// SIGKILL it, fetch a telemetry snapshot from /debug/vars, and compare two
// float streams bit for bit.
package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// listenPrefix starts the one line zmeshd prints to stdout: its bound
// address, once the listener is up.
const listenPrefix = "zmeshd: listening on "

// Daemon is one running zmeshd process.
type Daemon struct {
	cmd *exec.Cmd
	// URL is the base URL scraped from the listen line ("http://host:port").
	URL string
}

// Start boots bin with args and waits up to 15 s for the listen line, which
// it echoes to stdout. The process dies with ctx.
func Start(ctx context.Context, bin string, args ...string) (*Daemon, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &Daemon{cmd: cmd}
	url := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Println(line)
			if u, ok := strings.CutPrefix(line, listenPrefix); ok {
				url <- strings.TrimSpace(u)
			}
		}
	}()
	select {
	case d.URL = <-url:
		return d, nil
	case <-ctx.Done():
		d.Kill()
		return nil, fmt.Errorf("daemon never announced its address: %w", ctx.Err())
	case <-time.After(15 * time.Second):
		d.Kill()
		return nil, fmt.Errorf("daemon never announced its address within 15s")
	}
}

// Addr is the daemon's listen address ("host:port").
func (d *Daemon) Addr() string { return strings.TrimPrefix(d.URL, "http://") }

// Stop SIGTERMs the daemon and requires a clean drain: exit code 0 before
// ctx is done. A daemon that outlives ctx is killed.
func (d *Daemon) Stop(ctx context.Context) error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signaling daemon: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exited uncleanly after SIGTERM: %w", err)
		}
		return nil
	case <-ctx.Done():
		_ = d.cmd.Process.Kill()
		<-done
		return fmt.Errorf("daemon did not exit after SIGTERM: %w", ctx.Err())
	}
}

// Kill SIGKILLs the daemon and reaps it. Killing a daemon that has already
// exited is a no-op, so it is safe to defer next to Stop.
func (d *Daemon) Kill() {
	_ = d.cmd.Process.Kill()
	_ = d.cmd.Wait()
}

// Vars fetches baseURL's /debug/vars page and parses the telemetry snapshot
// published under key (server.ExpvarName, or server.VarsKey of a replica's
// listen address), requiring the key to be there.
func Vars(ctx context.Context, baseURL, key string) (*telemetry.Snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, baseURL+wire.PathVars, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping %s: %w", wire.PathVars, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s returned %d", wire.PathVars, resp.StatusCode)
	}
	var page map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", wire.PathVars, err)
	}
	raw, ok := page[key]
	if !ok {
		return nil, fmt.Errorf("%s has no key %q", wire.PathVars, key)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("parsing snapshot under %q: %w", key, err)
	}
	return &snap, nil
}

// BitExact compares two float streams at the bit level.
func BitExact(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("value %d differs: %x vs %x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
	return nil
}
