// Command clusterharness is the multi-replica fault-injection test harness
// for zmeshd's cluster mode: it boots N real daemon processes behind
// fault-injection proxies, drives 10–100 concurrent writers through the
// routing ClusterClient, and injects real faults while asserting that
// every operation still round-trips bit-exactly:
//
//   - SIGKILL of the primary owner mid-run (writers keep going through the
//     surviving owners; the replica is restarted empty and must heal via
//     peer structure fetch)
//   - delayed and dropped peer/client connections (the proxies stall or
//     close TCP conns to one replica for a window)
//   - a 429 storm against a replica booted with -max-inflight 1
//
// Phases are sequenced by polling real state — operation counters,
// /healthz, /debug/vars — never by ordering sleeps. At the end the
// harness scrapes every replica's namespaced /debug/vars key and asserts
// the cluster invariants: recipe builds bounded by replication × meshes
// on the surviving replicas, peer fetches recorded on the healed replica,
// shed counted on the stormed replica, latency timers present wherever
// traffic landed, and the routing client's worst-case attempt count within
// its sweep budget.
//
// Usage (mirrors .github/workflows/ci.yml cluster-e2e):
//
//	go build -o /tmp/zmeshd ./cmd/zmeshd
//	go run ./internal/tools/clusterharness -bin /tmp/zmeshd -replicas 3 -writers 32 -seed 1
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	zmesh "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/telemetry"
	"repro/internal/tools/harness"
)

func main() {
	var (
		bin      = flag.String("bin", "", "path to a built zmeshd binary (required)")
		replicas = flag.Int("replicas", 3, "cluster size")
		writers  = flag.Int("writers", 32, "concurrent writers (10-100)")
		meshes   = flag.Int("meshes", 4, "distinct mesh topologies in play")
		repl     = flag.Int("replication", 2, "owners per mesh")
		seed     = flag.Int64("seed", 1, "deterministic workload seed")
		timeout  = flag.Duration("timeout", 4*time.Minute, "overall deadline")
	)
	flag.Parse()
	switch {
	case *bin == "":
		fmt.Fprintln(os.Stderr, "clusterharness: -bin is required")
		os.Exit(2)
	case *writers < 10 || *writers > 100:
		fmt.Fprintln(os.Stderr, "clusterharness: -writers must be in [10, 100]")
		os.Exit(2)
	case *replicas < 2 || *repl < 2 || *repl > *replicas:
		fmt.Fprintln(os.Stderr, "clusterharness: need -replicas >= 2 and 2 <= -replication <= -replicas")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *bin, *replicas, *writers, *meshes, *repl, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "clusterharness: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("clusterharness: PASS")
}

// workUnit is one mesh plus every expected result, precomputed through the
// in-process library so writer verification is pure byte comparison.
type workUnit struct {
	id       string
	mesh     *zmesh.Mesh
	field    *zmesh.Field
	values   []float64
	artifact *zmesh.Compressed // expected compress result
	decoded  []float64         // expected decompress result
	tacArt   *zmesh.Compressed // expected compress result under the TAC box layout
	tacDec   []float64         // expected TAC decompress result
	ck       *zmesh.Checkpoint
	ckArts   []*zmesh.Compressed // expected checkpoint results
}

var (
	workOpt = zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"}
	// A second pipeline per mesh: the TAC box layout exercises the zTAC
	// frame path through every replica and doubles the per-mesh encoder
	// cache population the bounds below must account for.
	workOptTAC = zmesh.Options{Layout: zmesh.LayoutTAC, Curve: "hilbert", Codec: "sz"}
	workBound  = zmesh.AbsBound(1e-3)

	// workPipelines is the number of distinct (options, bound) pipelines the
	// writers drive per mesh; each populates its own encoder-cache entry.
	workPipelines = 2
)

// buildWork generates m distinct topologies (different refinement subsets
// of a 2×2-root mesh) with their full expected-result sets.
func buildWork(m int) ([]*workUnit, error) {
	units := make([]*workUnit, 0, m)
	seen := make(map[string]bool)
	for i := 0; i < m; i++ {
		mesh, err := zmesh.NewMesh(2, 8, [3]int{2, 2, 1})
		if err != nil {
			return nil, err
		}
		// Refinement subset i (by bitmask over the 4 roots) makes each
		// topology — and so each content address — distinct.
		for bit, root := range mesh.Roots() {
			if (i+1)&(1<<bit) != 0 {
				if err := mesh.Refine(root); err != nil {
					return nil, err
				}
			}
		}
		phase := float64(i)
		f := zmesh.SampleField(mesh, "dens", func(x, y, z float64) float64 {
			return math.Sin(5*x+phase)*math.Cos(4*y) + 0.1*phase*x
		})
		g := zmesh.SampleField(mesh, "pres", func(x, y, z float64) float64 {
			return math.Cos(3*x) * math.Sin(2*y+phase)
		})
		u := &workUnit{
			id:     cluster.MeshID(mesh.Structure()),
			mesh:   mesh,
			field:  f,
			values: zmesh.FieldValues(f),
			ck:     &zmesh.Checkpoint{Problem: "harness", Mesh: mesh, Fields: []*zmesh.Field{f, g}},
		}
		if seen[u.id] {
			return nil, fmt.Errorf("meshes %d collide on id %s", i, u.id)
		}
		seen[u.id] = true
		enc, err := zmesh.NewEncoder(mesh, workOpt)
		if err != nil {
			return nil, err
		}
		if u.artifact, err = enc.CompressField(f, workBound); err != nil {
			return nil, err
		}
		decField, err := zmesh.NewDecoder(mesh).DecompressField(u.artifact)
		if err != nil {
			return nil, err
		}
		u.decoded = zmesh.FieldValues(decField)
		encTAC, err := zmesh.NewEncoder(mesh, workOptTAC)
		if err != nil {
			return nil, err
		}
		if u.tacArt, err = encTAC.CompressField(f, workBound); err != nil {
			return nil, err
		}
		decTAC, err := zmesh.NewDecoder(mesh).DecompressField(u.tacArt)
		if err != nil {
			return nil, err
		}
		u.tacDec = zmesh.FieldValues(decTAC)
		for _, cf := range u.ck.Fields {
			a, err := enc.CompressField(cf, workBound)
			if err != nil {
				return nil, err
			}
			u.ckArts = append(u.ckArts, a)
		}
		units = append(units, u)
	}
	return units, nil
}

func run(ctx context.Context, bin string, nReplicas, nWriters, nMeshes, replication int, seed int64) error {
	work, err := buildWork(nMeshes)
	if err != nil {
		return fmt.Errorf("building workload: %w", err)
	}

	// Proxies first: their addresses are the advertised membership, known
	// before any process starts, so the ring — and therefore the fault
	// schedule — is computable up front.
	reps := make([]*replica, nReplicas)
	nodes := make([]string, nReplicas)
	for i := range reps {
		p, err := newFaultProxy()
		if err != nil {
			return err
		}
		reps[i] = &replica{idx: i, bin: bin, proxy: p}
		nodes[i] = p.url()
	}
	ring, err := cluster.New(nodes, cluster.DefaultVNodes, replication)
	if err != nil {
		return err
	}

	// Fault cast: the victim (SIGKILLed and restarted) is the primary owner
	// of mesh 0, so the post-restart peer-fetch probe is deterministic. The
	// stormed replica is any other index; it boots with -max-inflight 1.
	victim, storm := -1, -1
	primary := ring.Primary(work[0].id)
	for i, n := range nodes {
		if n == primary {
			victim = i
		}
	}
	for i := range nodes {
		if i != victim {
			storm = i
			break
		}
	}
	reps[storm].extraArgs = []string{"-max-inflight", "1"}
	fmt.Printf("clusterharness: %d replicas, R=%d, %d meshes, %d writers (victim=%d storm=%d)\n",
		nReplicas, replication, nMeshes, nWriters, victim, storm)

	defer func() {
		for _, r := range reps {
			if r.d != nil {
				r.d.Kill()
			}
		}
	}()
	for _, r := range reps {
		if err := r.start(ctx, nodes, replication, cluster.DefaultVNodes); err != nil {
			return err
		}
	}
	for _, r := range reps {
		if err := r.awaitHealthy(15 * time.Second); err != nil {
			return err
		}
	}
	fmt.Println("clusterharness: all replicas healthy")

	// The shared routing client: per-host retries are off (the router
	// sweeps owners). The rounds budget must outlast the worst shed phase —
	// the -max-inflight 1 replica under the storm burst can answer 429 for
	// seconds on a slow (race-instrumented) build, so give writers 10
	// rounds at up to 1s (the server's Retry-After hint) each.
	const rounds = 10
	cc, err := client.NewCluster(nodes,
		client.WithBackoff(50*time.Millisecond, time.Second),
		client.WithMaxRetries(rounds),
		client.WithHTTPClient(&http.Client{Timeout: 15 * time.Second}))
	if err != nil {
		return err
	}
	for i, u := range work {
		id, err := cc.RegisterMesh(ctx, u.mesh.Structure())
		if err != nil {
			return fmt.Errorf("registering mesh %d: %w", i, err)
		}
		if id != u.id {
			return fmt.Errorf("mesh %d: cluster returned id %s, local hash %s", i, id, u.id)
		}
	}
	fmt.Printf("clusterharness: %d meshes registered across owners\n", len(work))

	// Writers: each verifies every operation bit-exactly against the
	// precomputed library results. Phases below sequence on opsDone.
	var (
		opsDone  atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		errOnce  sync.Once
		writeErr error
	)
	fail := func(err error) { errOnce.Do(func() { writeErr = err }) }
	for w := 0; w < nWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := work[rng.Intn(len(work))]
				var err error
				switch rng.Intn(8) {
				case 0, 1, 2: // compress
					var comp *zmesh.Compressed
					comp, err = cc.Compress(ctx, u.id, u.field.Name, u.values, workOpt, workBound)
					if err == nil && !bytes.Equal(comp.Payload, u.artifact.Payload) {
						err = fmt.Errorf("mesh %s: artifact differs from library", u.id[:12])
					}
				case 3, 4: // decompress
					var vals []float64
					vals, err = cc.Decompress(ctx, u.id, u.artifact)
					if err == nil {
						err = harness.BitExact(vals, u.decoded)
					}
				case 5: // TAC compress
					var comp *zmesh.Compressed
					comp, err = cc.Compress(ctx, u.id, u.field.Name, u.values, workOptTAC, workBound)
					if err == nil && comp.Layout != zmesh.LayoutTAC {
						err = fmt.Errorf("mesh %s: TAC compress answered layout %v", u.id[:12], comp.Layout)
					}
					if err == nil && !bytes.Equal(comp.Payload, u.tacArt.Payload) {
						err = fmt.Errorf("mesh %s: TAC artifact differs from library", u.id[:12])
					}
				case 6: // TAC decompress
					var vals []float64
					vals, err = cc.Decompress(ctx, u.id, u.tacArt)
					if err == nil {
						err = harness.BitExact(vals, u.tacDec)
					}
				default: // checkpoint batch
					var arts []*zmesh.Compressed
					arts, err = cc.CompressCheckpoint(ctx, u.id, u.ck, workOpt, workBound)
					if err == nil && len(arts) != len(u.ckArts) {
						err = fmt.Errorf("checkpoint returned %d artifacts, want %d", len(arts), len(u.ckArts))
					}
					if err == nil {
						for i := range arts {
							if !bytes.Equal(arts[i].Payload, u.ckArts[i].Payload) {
								err = fmt.Errorf("checkpoint field %d artifact differs from library", i)
								break
							}
						}
					}
				}
				if err != nil {
					fail(fmt.Errorf("writer %d: %w", w, err))
					return
				}
				opsDone.Add(1)
			}
		}(w)
	}
	waitOps := func(target int64, what string) error {
		for opsDone.Load() < target {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("deadline while %s (%d/%d ops): %w", what, opsDone.Load(), target, err)
			}
			if writeErr != nil {
				return fmt.Errorf("writer failed while %s: %w", what, writeErr)
			}
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	}

	// Phase 1: baseline traffic with all replicas up.
	if err := waitOps(int64(2*nWriters), "establishing baseline"); err != nil {
		return err
	}

	// Phase 2: SIGKILL the victim mid-run (writers are mid-compress and
	// mid-checkpoint right now) and require progress while it is down.
	killedAt := opsDone.Load()
	reps[victim].d.Kill()
	fmt.Printf("clusterharness: SIGKILLed replica %d at %d ops\n", victim, killedAt)
	if err := waitOps(killedAt+int64(3*nWriters), "failing over around the dead primary"); err != nil {
		return err
	}

	// Phase 3: restart the victim empty; it must heal the probed mesh via a
	// peer structure fetch, bit-exactly.
	if err := reps[victim].start(ctx, nodes, replication, cluster.DefaultVNodes); err != nil {
		return fmt.Errorf("restarting victim: %w", err)
	}
	if err := reps[victim].awaitHealthy(15 * time.Second); err != nil {
		return err
	}
	fmt.Printf("clusterharness: replica %d restarted empty\n", victim)
	probe := client.New(nodes[victim],
		client.WithBackoff(50*time.Millisecond, 400*time.Millisecond), client.WithMaxRetries(10))
	comp, err := probe.Compress(ctx, work[0].id, work[0].field.Name, work[0].values, workOpt, workBound)
	if err != nil {
		return fmt.Errorf("post-restart probe on victim: %w", err)
	}
	if !bytes.Equal(comp.Payload, work[0].artifact.Payload) {
		return fmt.Errorf("post-restart probe artifact differs from library")
	}
	victimSnap, err := reps[victim].vars(ctx)
	if err != nil {
		return err
	}
	if victimSnap.Counters["server.peer.fetches"] < 1 {
		return fmt.Errorf("restarted replica healed without a peer fetch (counters: %v)", victimSnap.Counters)
	}
	fmt.Printf("clusterharness: replica %d healed via %d peer fetch(es)\n",
		victim, victimSnap.Counters["server.peer.fetches"])

	// Phase 4: delay, then drop, connections to one replica for a window of
	// ops. The restarted victim takes this fault — piling it onto the
	// -max-inflight 1 storm replica would starve both owners of some
	// meshes at once, which is an outage, not a fault drill. Writers must
	// ride both faults out with zero failures.
	delayed := victim
	reps[delayed].proxy.setDelay(100 * time.Millisecond)
	if err := waitOps(opsDone.Load()+int64(nWriters), "running under 100ms peer/client delay"); err != nil {
		return err
	}
	reps[delayed].proxy.setDelay(0)
	reps[delayed].proxy.dropNextConns(int64(nWriters / 2))
	if err := waitOps(opsDone.Load()+int64(nWriters), "running through dropped connections"); err != nil {
		return err
	}
	fmt.Println("clusterharness: delay and drop faults absorbed")

	// Phase 5: 429 storm — a burst of concurrent direct requests at the
	// -max-inflight 1 replica guarantees admission sheds while the writers
	// keep succeeding through the router.
	var burst sync.WaitGroup
	for b := 0; b < 16; b++ {
		burst.Add(1)
		go func(b int) {
			defer burst.Done()
			direct := client.New(nodes[storm], client.WithMaxRetries(0))
			u := work[b%len(work)]
			// Outcomes vary (2xx, 429, 421 off-owner) — the point is
			// concurrency pressure; correctness is asserted via counters.
			_, _ = direct.Compress(ctx, u.id, u.field.Name, u.values, workOpt, workBound)
		}(b)
	}
	burst.Wait()
	if err := waitOps(opsDone.Load()+int64(nWriters), "running through the 429 storm"); err != nil {
		return err
	}

	// Drain the workload.
	close(stop)
	wg.Wait()
	if writeErr != nil {
		return writeErr
	}
	total := opsDone.Load()
	fmt.Printf("clusterharness: %d operations, all bit-exact, zero failures\n", total)

	// Routing client invariants: attempts bounded by the sweep budget —
	// per round at most 2·R attempts (one sweep plus one post-refresh
	// rescan), over maxRetries+1 rounds.
	st := cc.Stats()
	bound := int64((rounds + 1) * 2 * replication)
	if st.MaxAttemptsPerOp > bound {
		return fmt.Errorf("an operation took %d attempts, budget is %d (stats %+v)", st.MaxAttemptsPerOp, bound, st)
	}
	if st.Failovers == 0 {
		return fmt.Errorf("no failovers recorded despite a SIGKILLed primary (stats %+v)", st)
	}
	fmt.Printf("clusterharness: router stats %+v (attempt budget %d)\n", st, bound)

	// Per-shard telemetry invariants, via each replica's namespaced
	// /debug/vars key.
	survivorBuilds, survivorEncBuilds := int64(0), int64(0)
	for _, r := range reps {
		snap, err := r.vars(ctx)
		if err != nil {
			return err
		}
		served := snap.Counters["server.compress.requests"] + snap.Counters["server.checkpoint.requests"] +
			snap.Counters["server.decompress.requests"]
		if served > 0 {
			lat := snap.Timers["server.compress.latency"].Count + snap.Timers["server.checkpoint.latency"].Count +
				snap.Timers["server.decompress.latency"].Count
			if lat == 0 {
				return fmt.Errorf("replica %d served %d requests but recorded no latency samples", r.idx, served)
			}
		}
		if r.idx != victim {
			survivorBuilds += snap.Counters["recipe.builds"]
			survivorEncBuilds += snap.Counters["server.cache.misses"]
		}
		if r.idx == storm && snapShed(snap) == 0 {
			return fmt.Errorf("stormed replica %d (max-inflight 1) never shed (counters: %v)", r.idx, snap.Counters)
		}
		fmt.Printf("clusterharness: replica %d vars ok (builds=%d shed=%d peer.fetches=%d)\n",
			r.idx, snap.Counters["recipe.builds"], snapShed(snap), snap.Counters["server.peer.fetches"])
	}
	// Each mesh has R owners and workPipelines (options, bound) pipelines
	// (zmesh and TAC), so the replicas that never lost their caches build at
	// most pipelines × R × meshes encoders between them (server.cache.misses
	// counts exactly one per encoder build), no matter how many writers
	// hammered. recipe.builds additionally counts the decompress side's
	// restore recipes — at most one more per pipeline per owned mesh — so
	// its bound is 2 × pipelines × R × meshes.
	if maxEnc := int64(workPipelines * replication * len(work)); survivorEncBuilds > maxEnc {
		return fmt.Errorf("surviving replicas built %d encoders for %d meshes × R=%d × %d pipelines (max %d) — encoder cache not bounding work",
			survivorEncBuilds, len(work), replication, workPipelines, maxEnc)
	}
	if maxBuilds := int64(2 * workPipelines * replication * len(work)); survivorBuilds > maxBuilds {
		return fmt.Errorf("surviving replicas built %d recipes for %d meshes × R=%d × %d pipelines (max %d) — recipe cache not bounding work",
			survivorBuilds, len(work), replication, workPipelines, maxBuilds)
	}

	// Clean shutdown: every replica drains on SIGTERM.
	for _, r := range reps {
		drainCtx, cancel := context.WithTimeout(ctx, 20*time.Second)
		err := r.d.Stop(drainCtx)
		cancel()
		if err != nil {
			return fmt.Errorf("replica %d: %w", r.idx, err)
		}
	}
	fmt.Println("clusterharness: all replicas drained cleanly")
	return nil
}

// snapShed sums the shed counters across endpoints.
func snapShed(snap *telemetry.Snapshot) int64 {
	var total int64
	for name, v := range snap.Counters {
		if len(name) > 5 && name[len(name)-5:] == ".shed" {
			total += v
		}
	}
	return total
}
