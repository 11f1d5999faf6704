// Command e2esmoke is the CI end-to-end smoke test for zmeshd: it boots a
// built daemon binary on an ephemeral port, round-trips a generated
// simulation checkpoint through the public client, checks the result
// bit-identical to the in-process library path, scrapes /debug/vars for the
// expected telemetry, and finally SIGTERMs the daemon and requires a clean
// drain (exit code 0).
//
// Usage (mirrors .github/workflows/ci.yml):
//
//	go build -o /tmp/zmeshd ./cmd/zmeshd
//	go run ./internal/tools/e2esmoke -bin /tmp/zmeshd
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	zmesh "repro"
	"repro/client"
	"repro/internal/server"
	"repro/internal/tools/harness"
	"repro/internal/wire"
)

func main() {
	var (
		bin     = flag.String("bin", "", "path to a built zmeshd binary (required)")
		problem = flag.String("problem", "sod", "simulation problem for the test checkpoint")
		timeout = flag.Duration("timeout", 2*time.Minute, "overall deadline")
	)
	flag.Parse()
	if *bin == "" {
		fmt.Fprintln(os.Stderr, "e2esmoke: -bin is required")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if err := run(ctx, *bin, *problem); err != nil {
		fmt.Fprintf(os.Stderr, "e2esmoke: FAIL: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("e2esmoke: PASS")
}

func run(ctx context.Context, bin, problem string) error {
	d, err := harness.Start(ctx, bin, "-addr", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// If we bail out early for any reason, don't leave an orphan daemon.
	defer d.Kill()
	base := d.URL
	fmt.Printf("e2esmoke: daemon up at %s\n", base)

	if err := roundTrip(ctx, base, problem); err != nil {
		return err
	}
	if err := streamRoundTrip(ctx, base, problem); err != nil {
		return err
	}
	if err := checkpointRoundTrip(ctx, base, problem); err != nil {
		return err
	}
	if err := checkVars(ctx, base); err != nil {
		return err
	}

	// Graceful shutdown: SIGTERM must drain and exit 0.
	if err := d.Stop(ctx); err != nil {
		return err
	}
	fmt.Println("e2esmoke: daemon drained cleanly")
	return nil
}

// roundTrip registers a generated checkpoint and pushes its fields through
// the service, requiring byte-identical artifacts and bit-identical
// reconstructions versus the in-process library path.
func roundTrip(ctx context.Context, base, problem string) error {
	ck, err := zmesh.Generate(problem, zmesh.GenerateOptions{Resolution: 64})
	if err != nil {
		return fmt.Errorf("generating checkpoint: %w", err)
	}
	opt := zmesh.DefaultOptions()
	bound := zmesh.AbsBound(1e-3)

	enc, err := zmesh.NewEncoder(ck.Mesh, opt)
	if err != nil {
		return err
	}
	dec := zmesh.NewDecoder(ck.Mesh)

	cl := client.New(base)
	id, err := cl.Register(ctx, ck.Mesh)
	if err != nil {
		return fmt.Errorf("registering mesh: %w", err)
	}
	fmt.Printf("e2esmoke: registered %s checkpoint as %s (%d fields)\n", problem, id[:12], len(ck.Fields))

	for _, f := range ck.Fields {
		want, err := enc.CompressField(f, bound)
		if err != nil {
			return fmt.Errorf("library compress %s: %w", f.Name, err)
		}
		got, err := cl.CompressField(ctx, id, f, opt, bound)
		if err != nil {
			return fmt.Errorf("server compress %s: %w", f.Name, err)
		}
		if string(got.Payload) != string(want.Payload) {
			return fmt.Errorf("field %s: server artifact differs from library artifact (%d vs %d bytes)",
				f.Name, len(got.Payload), len(want.Payload))
		}
		wantField, err := dec.DecompressField(want)
		if err != nil {
			return fmt.Errorf("library decompress %s: %w", f.Name, err)
		}
		values, err := cl.Decompress(ctx, id, got)
		if err != nil {
			return fmt.Errorf("server decompress %s: %w", f.Name, err)
		}
		if err := harness.BitExact(values, zmesh.FieldValues(wantField)); err != nil {
			return fmt.Errorf("field %s: server vs library: %w", f.Name, err)
		}
		fmt.Printf("e2esmoke: field %-8s round-tripped bit-exact (%d values, %d byte artifact)\n",
			f.Name, len(values), len(got.Payload))
	}
	return nil
}

// streamRoundTrip pushes one field through CompressStream from an io.Reader
// with no known length, which makes the request chunked
// Transfer-Encoding, and back through DecompressStream, and requires the
// artifact and the reconstruction bit-identical to the library path.
func streamRoundTrip(ctx context.Context, base, problem string) error {
	ck, err := zmesh.Generate(problem, zmesh.GenerateOptions{Resolution: 64})
	if err != nil {
		return fmt.Errorf("generating checkpoint: %w", err)
	}
	f := ck.Fields[0]
	opt := zmesh.DefaultOptions()
	bound := zmesh.AbsBound(1e-3)
	enc, err := zmesh.NewEncoder(ck.Mesh, opt)
	if err != nil {
		return err
	}
	want, err := enc.CompressField(f, bound)
	if err != nil {
		return err
	}

	cl := client.New(base)
	id, err := cl.Register(ctx, ck.Mesh)
	if err != nil {
		return err
	}
	values := zmesh.FieldValues(f)
	// MultiReader hides bytes.Reader's length from the transport.
	src := io.MultiReader(bytes.NewReader(wire.AppendFloats(nil, values)))
	got, err := cl.CompressStream(ctx, id, f.Name, src, opt, bound)
	if err != nil {
		return fmt.Errorf("CompressStream %s: %w", f.Name, err)
	}
	if string(got.Payload) != string(want.Payload) {
		return fmt.Errorf("field %s: streamed artifact differs from library artifact (%d vs %d bytes)",
			f.Name, len(got.Payload), len(want.Payload))
	}
	var out bytes.Buffer
	n, err := cl.DecompressStream(ctx, id, got, &out)
	if err != nil {
		return fmt.Errorf("DecompressStream %s: %w", f.Name, err)
	}
	if n != len(values) {
		return fmt.Errorf("field %s: DecompressStream returned %d values, want %d", f.Name, n, len(values))
	}
	streamed, err := wire.DecodeFloats(out.Bytes())
	if err != nil {
		return err
	}
	dec := zmesh.NewDecoder(ck.Mesh)
	wantField, err := dec.DecompressField(want)
	if err != nil {
		return err
	}
	if err := harness.BitExact(streamed, zmesh.FieldValues(wantField)); err != nil {
		return fmt.Errorf("field %s: streamed vs library: %w", f.Name, err)
	}
	fmt.Printf("e2esmoke: field %-8s round-tripped bit-exact via a reader-fed stream (%d values)\n", f.Name, n)
	return nil
}

// checkpointRoundTrip compresses every field of a snapshot in one batch
// request against a fresh pipeline (a curve no earlier step used) and
// requires exactly one recipe build for the whole checkpoint — the paper's
// amortization claim, asserted against the daemon's own counters.
func checkpointRoundTrip(ctx context.Context, base, problem string) error {
	ck, err := zmesh.Generate(problem, zmesh.GenerateOptions{Resolution: 64})
	if err != nil {
		return fmt.Errorf("generating checkpoint: %w", err)
	}
	// "morton" keeps this pipeline distinct from the default "hilbert" used
	// by the earlier round trips, so the recipe.builds delta isolates the
	// batch request.
	opt := zmesh.Options{Layout: zmesh.LayoutZMesh, Curve: "morton", Codec: "sz"}
	bound := zmesh.AbsBound(1e-3)

	buildsBefore, err := scrapeCounter(ctx, base, "recipe.builds")
	if err != nil {
		return err
	}
	cl := client.New(base)
	id, err := cl.Register(ctx, ck.Mesh)
	if err != nil {
		return err
	}
	arts, err := cl.CompressCheckpoint(ctx, id, ck, opt, bound)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if len(arts) != len(ck.Fields) {
		return fmt.Errorf("checkpoint returned %d artifacts for %d fields", len(arts), len(ck.Fields))
	}
	enc, err := zmesh.NewEncoder(ck.Mesh, opt)
	if err != nil {
		return err
	}
	for i, f := range ck.Fields {
		want, err := enc.CompressField(f, bound)
		if err != nil {
			return err
		}
		if string(arts[i].Payload) != string(want.Payload) {
			return fmt.Errorf("field %s: batch artifact differs from library artifact", f.Name)
		}
	}
	buildsAfter, err := scrapeCounter(ctx, base, "recipe.builds")
	if err != nil {
		return err
	}
	if got := buildsAfter - buildsBefore; got != 1 {
		return fmt.Errorf("checkpoint of %d fields cost %d recipe builds, want exactly 1", len(ck.Fields), got)
	}
	fmt.Printf("e2esmoke: checkpoint of %d fields batch-compressed with exactly 1 recipe build\n", len(ck.Fields))
	return nil
}

// scrapeCounter reads one counter from /debug/vars.
func scrapeCounter(ctx context.Context, base, name string) (int64, error) {
	snap, err := harness.Vars(ctx, base, server.ExpvarName)
	if err != nil {
		return 0, err
	}
	return snap.Counters[name], nil
}

// checkVars scrapes /debug/vars and requires the daemon's telemetry to show
// the traffic we just sent: requests counted on every endpoint exercised
// (the stream leg counts under compress and decompress), recipes built, cache hits
// from the second-and-later fields reusing the encoder.
func checkVars(ctx context.Context, base string) error {
	snap, err := harness.Vars(ctx, base, server.ExpvarName)
	if err != nil {
		return err
	}
	checks := []struct {
		name string
		min  int64
	}{
		{"server.register.requests", 1},
		{"server.compress.requests", 1},
		{"server.decompress.requests", 1},
		{"server.checkpoint.requests", 1},
		{"server.checkpoint.fields", 2}, // the batch carried the whole snapshot
		{"server.cache.misses", 1},
		{"server.cache.hits", 1}, // later fields reuse the first field's encoder
		{"recipe.builds", 1},
	}
	for _, c := range checks {
		if got := snap.Counters[c.name]; got < c.min {
			return fmt.Errorf("/debug/vars counter %s = %d, want >= %d (counters: %v)",
				c.name, got, c.min, snap.Counters)
		}
	}
	fmt.Printf("e2esmoke: telemetry ok (%d recipe builds, %d cache hits, %d compress requests, %d checkpoint fields)\n",
		snap.Counters["recipe.builds"], snap.Counters["server.cache.hits"],
		snap.Counters["server.compress.requests"], snap.Counters["server.checkpoint.fields"])
	return nil
}
