package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// recipeFromPerm builds a Recipe directly from a permutation, bypassing the
// mesh builders, so the kernel tests can cover arbitrary shapes and sizes
// (block boundaries, unroll remainders, empty and single-element streams).
func recipeFromPerm(perm []int32) *Recipe {
	return &Recipe{layout: ZMesh, curve: "test", n: len(perm), perm: perm}
}

func randomPerm(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

func randomStream(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

func equalBits(tb testing.TB, what string, got, want []float64) {
	tb.Helper()
	if len(got) != len(want) {
		tb.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			tb.Fatalf("%s: value %d = %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// checkKernelAgreement pins the dispatched (unsafe, unless built portable)
// kernels bit-for-bit against the serial oracles, and Restore∘Apply against
// identity.
func checkKernelAgreement(tb testing.TB, r *Recipe, flat []float64) {
	tb.Helper()
	wantOrdered, err := r.applyToSerial(nil, flat)
	if err != nil {
		tb.Fatal(err)
	}
	gotOrdered, err := r.ApplyTo(nil, flat)
	if err != nil {
		tb.Fatal(err)
	}
	equalBits(tb, "ApplyTo vs applyToSerial", gotOrdered, wantOrdered)

	wantFlat, err := r.restoreToSerial(nil, wantOrdered)
	if err != nil {
		tb.Fatal(err)
	}
	equalBits(tb, "restoreToSerial∘applyToSerial vs identity", wantFlat, flat)
	gotFlat, err := r.RestoreTo(nil, gotOrdered)
	if err != nil {
		tb.Fatal(err)
	}
	equalBits(tb, "RestoreTo vs restoreToSerial", gotFlat, wantFlat)
}

// TestKernelDifferentialMeshes runs the dispatched kernels against the serial
// oracle over real recipes: every layout × curve on 2-D and 3-D ring-front
// meshes at several depths (the same family the builder differential tests
// use).
func TestKernelDifferentialMeshes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, dims := range []int{2, 3} {
		depths := []int{1, 3}
		if dims == 3 {
			depths = []int{1, 2}
		}
		for _, depth := range depths {
			m := ringMesh(t, dims, depth)
			for _, layout := range allLayouts() {
				for _, curve := range []string{"hilbert", "morton", "rowmajor"} {
					t.Run(fmt.Sprintf("dims=%d/depth=%d/%s/%s", dims, depth, layout, curve), func(t *testing.T) {
						r, err := BuildRecipe(m, layout, curve)
						if err != nil {
							t.Fatal(err)
						}
						checkKernelAgreement(t, r, randomStream(rng, r.Len()))
					})
				}
			}
		}
	}
}

// TestKernelRandomPermutations sweeps sizes chosen to hit every boundary of
// the unrolled kernels: empty, single element, unroll remainders (±1 around
// the 4- and 8-wide unrolls), and sizes in the thousands.
func TestKernelRandomPermutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 100,
		1023, 1024, 1025, 1031, 3077}
	for _, n := range sizes {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			for trial := 0; trial < 3; trial++ {
				r := recipeFromPerm(randomPerm(rng, n))
				checkKernelAgreement(t, r, randomStream(rng, n))
			}
		})
	}
}

// TestKernelReusesDestination pins the buffer-reuse contract of the tuned
// path: a destination with sufficient capacity is returned (resliced), not
// replaced.
func TestKernelReusesDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := recipeFromPerm(randomPerm(rng, 777))
	flat := randomStream(rng, 777)
	dst := make([]float64, 777)
	out, err := r.ApplyTo(dst, flat)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &dst[0] {
		t.Fatal("ApplyTo did not reuse the provided destination")
	}
	back, err := r.RestoreTo(nil, out)
	if err != nil {
		t.Fatal(err)
	}
	equalBits(t, "round trip", back, flat)
}

// TestKernelAllocs pins the steady-state allocation count of the tuned
// kernels with reused destinations: zero.
func TestKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r := recipeFromPerm(randomPerm(rng, 4096))
	flat := randomStream(rng, 4096)
	dst := make([]float64, 4096)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = r.ApplyTo(dst, flat)
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ApplyTo with reused dst allocates %v per run, want 0", allocs)
	}
	ordered := make([]float64, 4096)
	copy(ordered, flat)
	if allocs := testing.AllocsPerRun(100, func() {
		var err error
		dst, err = r.RestoreTo(dst, ordered)
		if err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("RestoreTo with reused dst allocates %v per run, want 0", allocs)
	}
}

// TestKernelRejectsCorruptPerm pins the defense-in-depth path: a recipe
// whose permutation escapes [0, n) must be refused with an error — never
// handed to the unchecked kernels.
func TestKernelRejectsCorruptPerm(t *testing.T) {
	cases := map[string][]int32{
		"too-large": {0, 1, 3, 2, 4}, // 4 then corrupted below
		"negative":  {0, 1, 2, 3, -1},
	}
	cases["too-large"][4] = 5 // == n: one past the end
	for name, perm := range cases {
		t.Run(name, func(t *testing.T) {
			r := recipeFromPerm(perm)
			stream := make([]float64, len(perm))
			if _, err := r.ApplyTo(nil, stream); err == nil {
				t.Fatal("ApplyTo accepted an out-of-range permutation")
			}
			if _, err := r.RestoreTo(nil, stream); err == nil {
				t.Fatal("RestoreTo accepted an out-of-range permutation")
			}
		})
	}
	// A valid recipe must still verify cleanly.
	ok := recipeFromPerm([]int32{4, 2, 0, 1, 3})
	if _, err := ok.ApplyTo(nil, make([]float64, 5)); err != nil {
		t.Fatalf("valid permutation refused: %v", err)
	}
}

// FuzzKernelDifferential drives the kernel agreement check from fuzzed
// (size, seed) pairs, letting the fuzzer search for boundary sizes the fixed
// tables miss.
func FuzzKernelDifferential(f *testing.F) {
	f.Add(uint16(0), int64(1))
	f.Add(uint16(1), int64(2))
	f.Add(uint16(8), int64(3))
	f.Add(uint16(1024), int64(4))
	f.Add(uint16(1033), int64(5))
	f.Fuzz(func(t *testing.T, size uint16, seed int64) {
		n := int(size) % 5000
		rng := rand.New(rand.NewSource(seed))
		r := recipeFromPerm(randomPerm(rng, n))
		checkKernelAgreement(t, r, randomStream(rng, n))
	})
}
