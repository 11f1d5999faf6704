package zmesh

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/compress"
	"repro/internal/compress/multilevel"
	"repro/internal/compress/sz"
)

// perCall reports the median bytes and median allocations of one call of f,
// from runtime.MemStats deltas around each of runs calls after a warm-up
// call; the median, so that a GC emptying the pools mid-test costs one
// sample. Skipped under -race, where the pools are lossy by design.
func perCall(t *testing.T, runs int, f func()) (bytes, allocs uint64) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	f()
	b, a := make([]uint64, runs), make([]uint64, runs)
	var before, after runtime.MemStats
	for i := range b {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		b[i], a[i] = after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	}
	slices.Sort(b)
	slices.Sort(a)
	return b[runs/2], a[runs/2]
}

// The entropy stage costs what the data costs. Before it was made sparse and
// pooled, every call built Huffman tables sized to the 65 536-symbol
// alphabet and a fresh flate.Writer: 7.2 MB to sz-compress 64 values,
// 0.59 MB to decompress them. The pins need no stopwatch.
func TestEntropyStageFixedCost(t *testing.T) {
	data := make([]float64, 64)
	for i := range data {
		data[i] = math.Sin(float64(i)/5) + 0.01*math.Cos(float64(3*i))
	}
	bound := compress.RelBound(1e-4)
	codec := sz.New()
	for _, dims := range [][]int{{64}, {8, 8}, {4, 4, 4}} {
		payload, err := codec.Compress(data, dims, bound)
		if err != nil {
			t.Fatal(err)
		}
		calls := map[string]func(){
			"Compress":   func() { codec.Compress(data, dims, bound) },
			"Decompress": func() { codec.Decompress(payload) },
		}
		for name, f := range calls {
			if b, a := perCall(t, 51, f); b > 64<<10 || a > 32 {
				t.Errorf("sz.%s of 64 values, dims %v: %d bytes in %d allocations per call, want <= 64 KiB in <= 32",
					name, dims, b, a)
			}
		}
	}
	ml := multilevel.New()
	tiers, err := ml.CompressProgressive(data, []int{64}, compress.Rel, []float64{1e-1, 1e-2, 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := perCall(t, 51, func() {
		ml.CompressProgressive(data, []int{64}, compress.Rel, []float64{1e-1, 1e-2, 1e-3})
	}); b > 64<<10 {
		t.Errorf("multilevel.CompressProgressive of 64 values, 3 tiers: %d bytes per call, want <= 64 KiB", b)
	}
	if b, _ := perCall(t, 51, func() { ml.DecompressProgressive(tiers) }); b > 64<<10 {
		t.Errorf("multilevel.DecompressProgressive of 64 values, 3 tiers: %d bytes per call, want <= 64 KiB", b)
	}
}

// The TAC path calls the codec once per box, so its allocations used to be
// boxes × 7 MB. With the fixed cost gone a compress allocates its artifact
// and little else: at most twice the bytes it was given.
func TestTACCompressAllocatesInProportion(t *testing.T) {
	m, f := tacTestMesh3D(t)
	enc, err := NewEncoder(m, Options{Layout: LayoutTAC, Curve: "hilbert", Codec: "sz"})
	if err != nil {
		t.Fatal(err)
	}
	values := FieldValues(f)
	var scratch Scratch
	b, _ := perCall(t, 11, func() {
		if _, err := enc.CompressValuesScratch("f", values, RelBound(1e-4), &scratch); err != nil {
			t.Fatal(err)
		}
	})
	if input := uint64(8 * len(values)); b > 2*input {
		t.Errorf("tac/sz compress of %d input bytes allocates %d per call, want <= 2x", input, b)
	}
}

// What a codec call finds in the pools must not show in its output: inputs
// of different sizes, dims and smoothness rotate through sz from 16
// goroutines, and every payload and reconstruction must equal the one the
// same input produced on a single goroutine first.
func TestEntropyStagePoolRotation(t *testing.T) {
	type input struct {
		data []float64
		dims []int
	}
	var inputs []input
	for i, dims := range [][]int{{5000}, {64}, {40, 50}, {16, 16, 16}, {7}, {9, 11, 13}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		data := make([]float64, n)
		for j := range data {
			x := float64(j) / float64(n)
			data[j] = math.Sin(float64(7+5*i)*x) + 0.05*float64(i)*math.Sin(977*x)
		}
		inputs = append(inputs, input{data, dims})
	}
	bound := compress.RelBound(1e-4)
	codec := sz.New()
	want := make([][]byte, len(inputs))
	recon := make([][]float64, len(inputs))
	for i, in := range inputs {
		var err error
		if want[i], err = codec.Compress(in.data, in.dims, bound); err != nil {
			t.Fatal(err)
		}
		if recon[i], err = codec.Decompress(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 12; r++ {
				i := (g + 5*r) % len(inputs)
				got, err := codec.Compress(inputs[i].data, inputs[i].dims, bound)
				if err != nil || !bytes.Equal(got, want[i]) {
					t.Errorf("input %d, goroutine %d: payload depends on pool history (err %v)", i, g, err)
					return
				}
				back, err := codec.Decompress(got)
				if err != nil || !slices.Equal(back, recon[i]) {
					t.Errorf("input %d, goroutine %d: reconstruction depends on pool history (err %v)", i, g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
