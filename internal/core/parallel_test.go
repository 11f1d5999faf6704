package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/amr"
)

// ringMesh builds a deterministic adaptive mesh refined along a circular
// (2-D) or spherical (3-D) front crossing many root blocks — the regrid
// pattern shock-driven AMR produces, and a workload that spreads the
// chained trees across the whole root lattice.
func ringMesh(tb testing.TB, dims, depth int) *amr.Mesh {
	tb.Helper()
	rd := [3]int{4, 4, 1}
	if dims == 3 {
		rd = [3]int{2, 2, 2}
	}
	m, err := amr.NewMesh(dims, 8, rd)
	if err != nil {
		tb.Fatal(err)
	}
	for d := 0; d < depth; d++ {
		for _, id := range m.Leaves() {
			blk := m.Block(id)
			if blk.Level != d {
				continue
			}
			// Block centre and half-diagonal on the unit domain.
			ext := make([]float64, dims)
			centre := make([]float64, dims)
			diag := 0.0
			for k := 0; k < dims; k++ {
				ext[k] = 1.0 / float64(rd[k]<<uint(blk.Level))
				centre[k] = (float64(blk.Coord[k]) + 0.5) * ext[k]
				diag += ext[k] * ext[k] / 4
			}
			r := 0.0
			for k := 0; k < dims; k++ {
				dc := centre[k] - 0.5
				r += dc * dc
			}
			if math.Abs(math.Sqrt(r)-0.35) < math.Sqrt(diag) {
				if err := m.Refine(id); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	return m
}

// The builder's invariant: the span-based builder reproduces the serial
// oracle (oracle_test.go) bit for bit — for every layout, curve,
// dimensionality and worker count.
func TestParallelBuildMatchesSerial(t *testing.T) {
	curves := []string{"morton", "hilbert", "rowmajor"}
	for _, dims := range []int{2, 3} {
		meshes := map[string]*amr.Mesh{
			"random": randomMesh(t, 1234+int64(dims), dims),
			"ring":   ringMesh(t, dims, 3),
		}
		for name, m := range meshes {
			for _, layout := range allLayouts() {
				for _, curve := range curves {
					want, err := buildRecipeSerial(m, layout, curve)
					if err != nil {
						t.Fatalf("serial dims=%d %s %v/%s: %v", dims, name, layout, curve, err)
					}
					for _, workers := range differentialWorkers {
						got, err := buildRecipeParallel(m, layout, curve, workers, nil)
						if err != nil {
							t.Fatalf("parallel dims=%d %s %v/%s workers=%d: %v",
								dims, name, layout, curve, workers, err)
						}
						if got.Len() != want.Len() {
							t.Fatalf("dims=%d %s %v/%s workers=%d: len %d, want %d",
								dims, name, layout, curve, workers, got.Len(), want.Len())
						}
						for i := range want.Perm() {
							if got.Perm()[i] != want.Perm()[i] {
								t.Fatalf("dims=%d %s %v/%s workers=%d: perm differs at %d: %d != %d",
									dims, name, layout, curve, workers, i, got.Perm()[i], want.Perm()[i])
							}
						}
					}
				}
			}
		}
	}
}

// differentialWorkers are the worker budgets every builder differential
// runs: GOMAXPROCS, serial, a pair, an odd count, and more workers than any
// test mesh has spans.
var differentialWorkers = []int{0, 1, 2, 3, 64}

// TestBuildRecipeAllocs pins the builder's allocations to a per-build
// constant: the curve works on stack values, so no layout allocates per
// cell. One worker, 2-D and 3-D ring meshes (26 624 and 987 136 cells).
func TestBuildRecipeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact in a race build")
	}
	const maxAllocs = 128
	for _, dims := range []int{2, 3} {
		m := ringMesh(t, dims, 3)
		for _, layout := range allLayouts() {
			allocs := testing.AllocsPerRun(2, func() {
				if _, err := buildRecipeParallel(m, layout, "hilbert", 1, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > maxAllocs {
				t.Errorf("dims=%d %v: %v allocations per build, want <= %d", dims, layout, allocs, maxAllocs)
			}
		}
	}
}

// Concurrent recipe builds sharing one mesh must be race-free: the builder
// only reads the topology. Run under -race.
func TestConcurrentBuildsShareMesh(t *testing.T) {
	m := randomMesh(t, 77, 2)
	n := m.NumBlocks() * m.CellsPerBlock()
	curves := []string{"morton", "hilbert", "rowmajor"}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			layout := allLayouts()[g%len(allLayouts())]
			curve := curves[g%len(curves)]
			r, err := BuildRecipe(m, layout, curve)
			if err != nil {
				errs <- err
				return
			}
			seen := make([]bool, n)
			for _, s := range r.Perm() {
				if s < 0 || int(s) >= n || seen[s] {
					errs <- fmt.Errorf("%v/%s: invalid permutation", layout, curve)
					return
				}
				seen[s] = true
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// The radix sort must agree with the comparator sort, including on
// duplicate keys (where stability carries the pos tie-break).
func TestRadixSortMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := [][]orderEntry{
		nil,
		{{key: 3, pos: 0}},
	}
	// Random keys with varying spreads; pos ascending as builders emit them.
	for _, mask := range []uint64{0xff, 0xffff, 1<<62 - 1, ^uint64(0), 0x7} {
		entries := make([]orderEntry, 500)
		for i := range entries {
			entries[i] = orderEntry{key: rng.Uint64() & mask, pos: int32(i)}
		}
		cases = append(cases, entries)
	}
	// All-equal keys, already sorted, and reverse sorted.
	eq := make([]orderEntry, 100)
	asc := make([]orderEntry, 100)
	desc := make([]orderEntry, 100)
	for i := range eq {
		eq[i] = orderEntry{key: 42, pos: int32(i)}
		asc[i] = orderEntry{key: uint64(i) << 33, pos: int32(i)}
		desc[i] = orderEntry{key: uint64(len(desc) - i), pos: int32(i)}
	}
	cases = append(cases, eq, asc, desc)

	for ci, entries := range cases {
		want := append([]orderEntry(nil), entries...)
		sort.Slice(want, func(a, b int) bool {
			if want[a].key != want[b].key {
				return want[a].key < want[b].key
			}
			return want[a].pos < want[b].pos
		})
		got := append([]orderEntry(nil), entries...)
		scratch := make([]orderEntry, len(got))
		radixSortEntries(got, scratch)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("case %d: index %d: got %+v, want %+v", ci, i, got[i], want[i])
			}
		}
	}
}

// The int32 position-space guard: boundary arithmetic only, no giant
// allocations.
func TestCheckMeshSizeBoundary(t *testing.T) {
	const cpb = 16 // blockSize 4, 2-D
	limit := MaxCells / cpb
	if err := CheckMeshSize(limit, cpb); err != nil {
		t.Fatalf("%d blocks of %d cells rejected: %v", limit, cpb, err)
	}
	if err := CheckMeshSize(limit+1, cpb); err == nil {
		t.Fatalf("%d blocks of %d cells accepted (positions would wrap int32)", limit+1, cpb)
	}
	if err := CheckMeshSize(-1, cpb); err == nil {
		t.Fatal("negative block count accepted")
	}
	if err := CheckMeshSize(1, 0); err == nil {
		t.Fatal("zero cells per block accepted")
	}
}

// ApplyTo/RestoreTo must match Apply/Restore, reuse caller buffers, and
// reject aliasing destinations.
func TestApplyRestoreTo(t *testing.T) {
	m := randomMesh(t, 13, 2)
	r, err := BuildRecipe(m, ZMesh, "hilbert")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	flat := make([]float64, r.Len())
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	want, err := r.Apply(flat)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]float64, r.Len())
	got, err := r.ApplyTo(buf, flat)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &buf[0] {
		t.Fatal("ApplyTo did not reuse the caller buffer")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ApplyTo differs at %d", i)
		}
	}
	back, err := r.RestoreTo(make([]float64, 0, r.Len()), got)
	if err != nil {
		t.Fatal(err)
	}
	for i := range flat {
		if back[i] != flat[i] {
			t.Fatalf("RestoreTo differs at %d", i)
		}
	}
	// Short buffers are grown, not written out of bounds.
	small := make([]float64, 3)
	grown, err := r.ApplyTo(small, flat)
	if err != nil {
		t.Fatal(err)
	}
	if len(grown) != r.Len() {
		t.Fatalf("ApplyTo returned %d values, want %d", len(grown), r.Len())
	}
	// In-place permutation is impossible; aliasing must be rejected.
	if _, err := r.ApplyTo(flat, flat); err == nil {
		t.Fatal("aliasing destination accepted")
	}
	if _, err := r.RestoreTo(got, got); err == nil {
		t.Fatal("aliasing destination accepted")
	}
}
