package server

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	zmesh "repro"
	"repro/client"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// TestVarsTemporalKeyShape pins the /debug/vars key shape of the temporal
// subsystem: every server.session.* and server.store.* counter, plus the
// admission counters of the four temporal endpoints, must appear on the
// scraped page under this server's key — dashboards and the e2e harness
// alert on these exact names. The pin runs a real lifecycle so the load-
// bearing counters are provably wired, not just registered.
func TestVarsTemporalKeyShape(t *testing.T) {
	m, _ := testMesh(t)
	cfg := temporalConfig(t)
	s, addr := serveOnEphemeral(t, cfg)
	cl := client.New("http://"+addr, client.WithBackoff(time.Millisecond, 50*time.Millisecond))
	ctx := context.Background()

	sess, err := cl.NewTemporalSession(ctx, temporalOptions())
	if err != nil {
		t.Fatal(err)
	}
	for si := 0; si < 2; si++ {
		if _, err := sess.Append(ctx, snapField(m, "dens", 0.2*float64(si)), zmesh.AbsBound(1e-3)); err != nil {
			t.Fatal(err)
		}
	}
	ckpt, err := sess.Seal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadField(ctx, ckpt, "dens", -1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFieldLevels(ctx, ckpt, "dens", -1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ReadFieldTiers(ctx, ckpt, "dens", -1, 2); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get("http://" + addr + wire.PathVars)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var page map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(page[VarsKey(addr)], &snap); err != nil {
		t.Fatal(err)
	}

	// Exact key inventory: a rename here breaks scrapers, so spell every
	// key out rather than deriving them.
	keys := []string{
		"server.session.active",
		"server.session.created",
		"server.session.evicted",
		"server.session.sealed",
		"server.session.frames",
		"server.session.forced_keyframes",
		"server.session.dangling_deltas",
		"server.store.objects",
		"server.store.artifact_bytes",
		"server.store.dedup_hits",
		"server.store.checkpoints",
		"server.store.object_gets",
		"server.store.reads",
		"server.store.level_reads",
		"server.store.tier_reads",
	}
	for _, ep := range []string{"session_create", "session_frame", "session_seal", "checkpoint_read"} {
		keys = append(keys,
			"server."+ep+".requests",
			"server."+ep+".errors",
			"server."+ep+".shed",
			"server."+ep+".inflight",
		)
	}
	for _, key := range keys {
		if _, ok := snap.Counters[key]; !ok {
			t.Errorf("scraped snapshot is missing counter %q", key)
		}
	}

	// The lifecycle above fixes these values exactly.
	for key, want := range map[string]int64{
		"server.session.created":          1,
		"server.session.sealed":           1,
		"server.session.active":           0,
		"server.session.frames":           2,
		"server.session.evicted":          0,
		"server.session.forced_keyframes": 0,
		"server.session.dangling_deltas":  0,
		"server.store.objects":            2,
		"server.store.checkpoints":        1,
		"server.store.object_gets":        6, // three reads of snapshot 1: its keyframe and one delta each
		"server.store.reads":              3,
		"server.store.level_reads":        1,
		"server.store.tier_reads":         1,
		"server.session_create.requests":  1,
		"server.session_frame.requests":   2,
		"server.session_seal.requests":    1,
		"server.checkpoint_read.requests": 3,
		"server.session_frame.errors":     0,
		"server.checkpoint_read.errors":   0,
	} {
		if got := snap.Counters[key]; got != want {
			t.Errorf("counter %q = %d, want %d", key, got, want)
		}
	}

	// Scraped and in-process views agree.
	if got := s.Registry().Counter("server.store.checkpoints").Load(); got != snap.Counters["server.store.checkpoints"] {
		t.Fatalf("scraped store.checkpoints %d != in-process %d", snap.Counters["server.store.checkpoints"], got)
	}
}
