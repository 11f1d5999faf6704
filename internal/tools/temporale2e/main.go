// Command temporale2e is the CI end-to-end test for zmeshd's temporal
// checkpoint store: it boots a built daemon binary with a store directory,
// streams a 3-snapshot 3-D Sedov run (keyframe + deltas, two quantities)
// through two temporal sessions — one under zmesh order, one under tac, the
// layout ResolveAuto names for 3-D meshes and so the one a 3-D user passes —
// seals both, SIGTERMs the daemon and restarts it over the same store, then
// requires of each
//
//   - bit-exact full reads of every persisted snapshot (vs a client-side
//     mirror decoder fed the exact accepted frames),
//   - level-prefix progressive reads whose max reconstruction error strictly
//     improves as levels are added (and whose prefixes match the full read
//     byte for byte),
//   - tiered progressive reads whose guaranteed bounds strictly decrease and
//     hold for every prefix,
//   - one recipe build per (structure, layout, curve) the reads touch, not
//     one per read: the post-restart reads take their Decoder from the
//     daemon's mesh LRU, so recipe.builds rises at most by that count,
//   - session recovery across the restart: a session left unsealed when the
//     daemon dies must be transparently re-established by the client's next
//     append (forced keyframe, new session id), never wedged or forked.
//
// Usage (mirrors .github/workflows/ci.yml):
//
//	go build -o /tmp/zmeshd ./cmd/zmeshd
//	go run ./internal/tools/temporale2e -bin /tmp/zmeshd
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	zmesh "repro"
	"repro/client"
	"repro/internal/amr"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/tools/harness"
)

func main() {
	var (
		bin     = flag.String("bin", "", "path to a built zmeshd binary (required)")
		res     = flag.Int("res", 48, "3-D solver resolution (res^3 cells)")
		timeout = flag.Duration("timeout", 5*time.Minute, "overall deadline")
	)
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "temporale2e: -bin is required")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *bin, *res); err != nil {
		fmt.Fprintf(os.Stderr, "temporale2e: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("temporale2e: PASS")
}

// quantities are the streams of each session.
var quantities = []string{"dens", "pres"}

// snapshots runs the 3-D Sedov blast to three successive times and samples
// every state onto the FIRST snapshot's hierarchy, so the temporal streams
// carry one keyframe followed by genuine delta frames.
func snapshots(res int) (*zmesh.Mesh, map[string][]*zmesh.Field, error) {
	p, err := sim.Lookup3D("sedov3d")
	if err != nil {
		return nil, nil, err
	}
	opt := sim.Analytic3DOptions{BlockSize: 8, RootDims: [3]int{2, 2, 2}, MaxDepth: 2, Threshold: 0.35}
	base, err := sim.GenerateCheckpoint3DAt("sedov3d", res, 0.4, opt)
	if err != nil {
		return nil, nil, fmt.Errorf("generating base snapshot: %w", err)
	}
	fields := map[string][]*zmesh.Field{}
	for _, q := range quantities {
		f, ok := base.Field(q)
		if !ok {
			return nil, nil, fmt.Errorf("base snapshot has no field %q", q)
		}
		fields[q] = append(fields[q], f)
	}
	for _, tScale := range []float64{0.5, 0.6} {
		g, err := sim.Run3D(p, res, tScale)
		if err != nil {
			return nil, nil, fmt.Errorf("advancing to t=%.1f: %w", tScale, err)
		}
		for _, q := range quantities {
			fields[q] = append(fields[q], amr.SampleField(base.Mesh, q, g.Sampler3(q)))
		}
	}
	return base.Mesh, fields, nil
}

// streamRun sends every snapshot through one temporal session (one stream per
// quantity) and seals it. want is the exact reconstruction each accepted
// frame commits the server to, from a client-side mirror decoder.
func streamRun(ctx context.Context, cl *client.Client, opt zmesh.Options, fields map[string][]*zmesh.Field, bound zmesh.Bound) (ckpt string, want map[string][][]float64, err error) {
	sess, err := cl.NewTemporalSession(ctx, opt)
	if err != nil {
		return "", nil, fmt.Errorf("creating session: %w", err)
	}
	mirrors := map[string]*zmesh.TemporalDecoder{}
	want = map[string][][]float64{}
	for si := range fields[quantities[0]] {
		for _, q := range quantities {
			r, err := sess.Append(ctx, fields[q][si], bound)
			if err != nil {
				return "", nil, fmt.Errorf("appending %s snapshot %d: %w", q, si, err)
			}
			if (si == 0) != r.Keyframe {
				return "", nil, fmt.Errorf("%s snapshot %d: keyframe=%v, want keyframe only first (static topology)", q, si, r.Keyframe)
			}
			if mirrors[q] == nil {
				mirrors[q] = zmesh.NewTemporalDecoder()
			}
			mf, err := mirrors[q].DecompressSnapshot(r.Frame)
			if err != nil {
				return "", nil, fmt.Errorf("mirror decode %s snapshot %d: %w", q, si, err)
			}
			want[q] = append(want[q], append([]float64(nil), zmesh.FieldValues(mf)...))
			fmt.Printf("temporale2e: %v: appended %s snapshot %d (keyframe=%v, %d bytes, object %s...)\n",
				opt.Layout, q, si, r.Keyframe, len(r.Frame.Payload), r.Object[:12])
		}
	}
	if ckpt, err = sess.Seal(ctx); err != nil {
		return "", nil, fmt.Errorf("sealing: %w", err)
	}
	fmt.Printf("temporale2e: %v: sealed checkpoint %s...\n", opt.Layout, ckpt[:12])
	return ckpt, want, nil
}

// checkReads holds one sealed checkpoint to every read contract: full reads
// bit-exact against want, level prefixes that match the full read and
// strictly improve, tier bounds that strictly decrease and hold.
func checkReads(ctx context.Context, cl *client.Client, ckpt string, want map[string][][]float64) error {
	nSnaps := len(want[quantities[0]])
	for _, q := range quantities {
		for si := 0; si < nSnaps; si++ {
			got, err := cl.ReadField(ctx, ckpt, q, si)
			if err != nil {
				return fmt.Errorf("post-restart read %s snapshot %d: %w", q, si, err)
			}
			if err := harness.BitExact(got, want[q][si]); err != nil {
				return fmt.Errorf("%s snapshot %d: %w", q, si, err)
			}
		}
	}
	fmt.Printf("temporale2e: all %d persisted reconstructions bit-exact after restart\n", len(quantities)*nSnaps)

	// Progressive level-prefix reads: prefixes must match the full read byte
	// for byte, and the reconstruction error must strictly improve with
	// every added level, hitting exactly zero at the full depth.
	structure, err := cl.CheckpointStructure(ctx, ckpt, "dens", 0)
	if err != nil {
		return err
	}
	rdec, err := zmesh.NewDecoderFromStructure(structure)
	if err != nil {
		return fmt.Errorf("rebuilding mesh from checkpoint structure: %w", err)
	}
	rmesh := rdec.Mesh()
	maxLevels := rmesh.MaxLevel() + 1
	for _, q := range quantities {
		full := want[q][0]
		prev := math.Inf(1)
		for k := 1; k <= maxLevels; k++ {
			ld, err := cl.ReadFieldLevels(ctx, ckpt, q, 0, k)
			if err != nil {
				return fmt.Errorf("levels=%d read of %s: %w", k, q, err)
			}
			if err := harness.BitExact(ld.Values, full[:len(ld.Values)]); err != nil {
				return fmt.Errorf("%s levels=%d prefix: %w", q, k, err)
			}
			rec, err := zmesh.ReconstructPartialLevels(rmesh, q, ld.Values, k)
			if err != nil {
				return err
			}
			recValues := zmesh.FieldValues(rec)
			maxErr := 0.0
			for i := range recValues {
				if d := math.Abs(recValues[i] - full[i]); d > maxErr {
					maxErr = d
				}
			}
			fmt.Printf("temporale2e: %s levels=%d/%d -> max error %.6g\n", q, k, maxLevels, maxErr)
			if maxErr >= prev {
				return fmt.Errorf("%s: levels=%d max error %g did not improve on %g", q, k, maxErr, prev)
			}
			if k == maxLevels && maxErr != 0 {
				return fmt.Errorf("%s: full-depth levels read reconstructed with error %g, want 0", q, maxErr)
			}
			prev = maxErr
		}
	}

	// Tiered reads: guaranteed bounds strictly decrease, and every prefix's
	// actual error honors its bound.
	td, err := cl.ReadFieldTiers(ctx, ckpt, "dens", nSnaps-1, 4)
	if err != nil {
		return fmt.Errorf("tiered read: %w", err)
	}
	full := want["dens"][nSnaps-1]
	for i, b := range td.Bounds {
		if i > 0 && !(b < td.Bounds[i-1]) {
			return fmt.Errorf("tier bounds not strictly decreasing: %v", td.Bounds)
		}
	}
	maxErr := 0.0
	for i := range td.Values {
		if d := math.Abs(td.Values[i] - full[i]); d > maxErr {
			maxErr = d
		}
	}
	if maxErr > td.Bounds[len(td.Bounds)-1]+1e-12 {
		return fmt.Errorf("tiered reconstruction error %g exceeds final guaranteed bound %g", maxErr, td.Bounds[len(td.Bounds)-1])
	}
	fmt.Printf("temporale2e: tiered read ok (%d tiers, bounds %v, final max error %.3g)\n",
		len(td.Bounds), td.Bounds, maxErr)
	return nil
}

func run(ctx context.Context, bin string, res int) error {
	storeDir, err := os.MkdirTemp("", "zmesh-temporal-e2e-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)

	fmt.Printf("temporale2e: running 3-D Sedov blast at %d^3 (3 snapshots)...\n", res)
	mesh, fields, err := snapshots(res)
	if err != nil {
		return err
	}
	nSnaps := len(fields["dens"])
	fmt.Printf("temporale2e: mesh has %d levels, %d blocks, %d values/quantity\n",
		mesh.MaxLevel()+1, mesh.NumBlocks(), mesh.NumBlocks()*mesh.CellsPerBlock())

	d, err := harness.Start(ctx, bin, "-addr", "127.0.0.1:0", "-store", storeDir)
	if err != nil {
		return err
	}
	defer d.Kill()
	fmt.Printf("temporale2e: daemon up at %s (store %s)\n", d.URL, storeDir)

	// Stream the run once per layout, each through its own session.
	cl := client.New(d.URL)
	opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "hilbert", Codec: "sz"}
	bound := zmesh.AbsBound(1e-3)
	layouts := []zmesh.Layout{zmesh.LayoutZMesh, zmesh.LayoutTAC}
	ckpts := make([]string, len(layouts))
	wants := make([]map[string][][]float64, len(layouts))
	for i, layout := range layouts {
		o := opt
		o.Layout = layout
		if ckpts[i], wants[i], err = streamRun(ctx, cl, o, fields, bound); err != nil {
			return fmt.Errorf("%v session: %w", layout, err)
		}
	}

	// One more session left unsealed across the restart: its state dies with
	// the daemon and must come back via the client's recovery path.
	orphan, err := cl.NewTemporalSession(ctx, opt)
	if err != nil {
		return err
	}
	// Snapshot 1 as this session's keyframe: full values, not the sealed
	// session's delta, so the object is new rather than a dedup hit.
	if _, err := orphan.Append(ctx, fields["dens"][1], bound); err != nil {
		return err
	}

	snap, err := harness.Vars(ctx, d.URL, server.ExpvarName)
	if err != nil {
		return err
	}
	sent := int64(len(layouts)*len(quantities)*nSnaps + 1)
	for key, min := range map[string]int64{
		"server.session.created":   int64(len(layouts) + 1),
		"server.session.frames":    sent,
		"server.store.objects":     sent,
		"server.store.checkpoints": int64(len(layouts)),
	} {
		if got := snap.Counters[key]; got < min {
			return fmt.Errorf("/debug/vars counter %s = %d, want >= %d", key, got, min)
		}
	}

	// Crash-restart: SIGTERM (clean drain), then a fresh daemon over the
	// same store directory — rebound to the same address, so the clients
	// (including the orphaned session) keep talking to "the daemon" the way
	// a supervised restart looks from a simulation's side.
	if err := d.Stop(ctx); err != nil {
		return err
	}
	fmt.Println("temporale2e: daemon drained cleanly, restarting over the same store")
	d, err = harness.Start(ctx, bin, "-addr", d.Addr(), "-store", storeDir)
	if err != nil {
		return err
	}
	defer d.Kill()

	// Everything the sealed checkpoints persisted, on every read surface.
	snap, err = harness.Vars(ctx, d.URL, server.ExpvarName)
	if err != nil {
		return err
	}
	buildsBefore := snap.Counters["recipe.builds"]
	for i, layout := range layouts {
		if err := checkReads(ctx, cl, ckpts[i], wants[i]); err != nil {
			return fmt.Errorf("%v checkpoint: %w", layout, err)
		}
	}
	// Every snapshot lies on the first snapshot's hierarchy and both sessions
	// use one curve, so the reads touch one structure per layout: the reads
	// may build that many recipes, however many reads there were.
	snap, err = harness.Vars(ctx, d.URL, server.ExpvarName)
	if err != nil {
		return err
	}
	builds, pairs := snap.Counters["recipe.builds"]-buildsBefore, int64(len(layouts))
	if builds > pairs {
		return fmt.Errorf("post-restart reads cost %d recipe builds, want at most %d (one per structure, layout and curve read)", builds, pairs)
	}
	fmt.Printf("temporale2e: post-restart reads cost %d recipe builds (at most %d allowed)\n", builds, pairs)

	// The orphaned session must recover: the restart dropped its server-side
	// state, so its next append answers 404 and the client transparently
	// re-creates the session and re-sends the snapshot as a forced keyframe.
	oldID := orphan.ID()
	r, err := orphan.Append(ctx, fields["dens"][2], bound)
	if err != nil {
		return fmt.Errorf("post-restart append on orphaned session: %w", err)
	}
	if !r.Recovered || !r.Keyframe || !r.Forced {
		return fmt.Errorf("post-restart append recovered=%v keyframe=%v forced=%v, want a forced-keyframe recovery",
			r.Recovered, r.Keyframe, r.Forced)
	}
	if orphan.ID() == oldID {
		return fmt.Errorf("recovery kept the dead session id %s", oldID)
	}
	fmt.Println("temporale2e: unsealed session re-established after restart (forced keyframe path)")

	// Post-restart telemetry: the read counters live on the new process.
	snap, err = harness.Vars(ctx, d.URL, server.ExpvarName)
	if err != nil {
		return err
	}
	for key, min := range map[string]int64{
		"server.store.reads":       1,
		"server.store.level_reads": 1,
		"server.store.tier_reads":  1,
	} {
		if got := snap.Counters[key]; got < min {
			return fmt.Errorf("/debug/vars counter %s = %d, want >= %d", key, got, min)
		}
	}

	if err := d.Stop(ctx); err != nil {
		return err
	}
	fmt.Println("temporale2e: daemon drained cleanly")
	return nil
}
