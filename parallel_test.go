package zmesh

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestCompressFieldsMatchesSerial(t *testing.T) {
	ck := checkpoint(t)
	enc, err := NewEncoder(ck.Mesh, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bound := RelBound(1e-4)
	parallel, err := enc.CompressFields(ck.Fields, bound, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parallel) != len(ck.Fields) {
		t.Fatalf("%d results for %d fields", len(parallel), len(ck.Fields))
	}
	for i, f := range ck.Fields {
		serial, err := enc.CompressField(f, bound)
		if err != nil {
			t.Fatal(err)
		}
		if parallel[i].FieldName != f.Name {
			t.Fatalf("result %d is %q, want %q (order must be preserved)",
				i, parallel[i].FieldName, f.Name)
		}
		if len(parallel[i].Payload) != len(serial.Payload) {
			t.Fatalf("field %s: parallel %d bytes, serial %d bytes",
				f.Name, len(parallel[i].Payload), len(serial.Payload))
		}
		for j := range serial.Payload {
			if parallel[i].Payload[j] != serial.Payload[j] {
				t.Fatalf("field %s: payload differs at byte %d (must be deterministic)", f.Name, j)
			}
		}
	}
}

func TestCompressFieldsWorkerCounts(t *testing.T) {
	ck := checkpoint(t)
	enc, err := NewEncoder(ck.Mesh, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 16} {
		out, err := enc.CompressFields(ck.Fields, RelBound(1e-3), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, c := range out {
			if c == nil || len(c.Payload) == 0 {
				t.Fatalf("workers=%d: empty result", workers)
			}
		}
	}
}

func TestCompressFieldsPropagatesErrors(t *testing.T) {
	ck := checkpoint(t)
	other, err := NewMesh(2, 8, [3]int{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	foreign := NewField(other, "foreign")
	enc, err := NewEncoder(ck.Mesh, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fields := append(append([]*Field{}, ck.Fields...), foreign)
	if _, err := enc.CompressFields(fields, RelBound(1e-3), 3); err == nil {
		t.Fatal("foreign field accepted in parallel path")
	}
}

func TestCompressFieldsEmpty(t *testing.T) {
	ck := checkpoint(t)
	enc, err := NewEncoder(ck.Mesh, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out, err := enc.CompressFields(nil, RelBound(1e-3), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("%d results for no fields", len(out))
	}
}

// The encoder must be safe for concurrent CompressField calls too (the
// recipe is read-only after construction).
func TestEncoderConcurrentUse(t *testing.T) {
	ck := checkpoint(t)
	enc, err := NewEncoder(ck.Mesh, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f := ck.Fields[g%len(ck.Fields)]
			if _, err := enc.CompressField(f, RelBound(1e-3)); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestDecoderEncodersShareRecipes: 16 goroutines first-use 4 pipelines on
// one Decoder, compressing and decompressing at once. Each (layout, curve)
// recipe builds exactly once, one caller per pipeline builds its encoder,
// and every artifact is byte-identical to a standalone NewEncoder's.
func TestDecoderEncodersShareRecipes(t *testing.T) {
	ck := checkpoint(t)
	f := ck.Fields[0]
	bound := RelBound(1e-4)
	pipelines := []Options{
		{Layout: LayoutZMesh, Curve: "hilbert", Codec: "sz"},
		{Layout: LayoutSFC, Curve: "morton", Codec: "zfp"},
		{Layout: LayoutTAC, Curve: "hilbert", Codec: "zfp"},
		{Layout: LayoutLevel, Curve: "rowmajor", Codec: "gzip"},
	}
	want := make([][]byte, len(pipelines))
	for i, opt := range pipelines {
		enc, err := NewEncoder(ck.Mesh, opt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := enc.CompressField(f, bound)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = c.Payload
	}

	reg := NewRegistry()
	dec := NewDecoder(ck.Mesh).Instrument(reg)
	const goroutines = 16
	built := make([]bool, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := g % len(pipelines)
			enc, cached, err := dec.Encoder(pipelines[p])
			if err != nil {
				errs[g] = err
				return
			}
			built[g] = !cached
			c, err := enc.CompressField(f, bound)
			if err != nil {
				errs[g] = err
				return
			}
			if !bytes.Equal(c.Payload, want[p]) {
				errs[g] = fmt.Errorf("pipeline %d: shared encoder's artifact differs from NewEncoder's", p)
				return
			}
			_, errs[g] = dec.DecompressField(c)
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	nBuilt := 0
	for _, b := range built {
		if b {
			nBuilt++
		}
	}
	if nBuilt != len(pipelines) {
		t.Fatalf("%d callers built an encoder, want %d (one per pipeline)", nBuilt, len(pipelines))
	}
	snap := reg.Snapshot()
	if got := snap.Counters["recipe.builds"]; got != int64(len(pipelines)) {
		t.Fatalf("recipe.builds = %d, want %d (one per layout/curve)", got, len(pipelines))
	}
}

func BenchmarkCompressFieldsParallel(b *testing.B) {
	ck, _ := pipelineData(b)
	enc, err := NewEncoder(ck.Mesh, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	n := ck.Mesh.NumBlocks() * ck.Mesh.CellsPerBlock() * len(ck.Fields)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.CompressFields(ck.Fields, RelBound(1e-4), 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressFieldsSerial(b *testing.B) {
	ck, _ := pipelineData(b)
	enc, err := NewEncoder(ck.Mesh, DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	n := ck.Mesh.NumBlocks() * ck.Mesh.CellsPerBlock() * len(ck.Fields)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range ck.Fields {
			if _, err := enc.CompressField(f, RelBound(1e-4)); err != nil {
				b.Fatal(err)
			}
		}
	}
}
