package core

import (
	"fmt"
	"testing"
)

// BenchmarkBuildRecipe sweeps the recipe builder over layout × curve ×
// depth on the ring-front mesh (see parallel_test.go). Compare against
// BenchmarkBuildRecipeSerial for the gain over the serial oracle.
func BenchmarkBuildRecipe(b *testing.B) {
	for _, depth := range []int{2, 4, 5} {
		m := ringMesh(b, 2, depth)
		for _, layout := range allLayouts() {
			for _, curve := range []string{"hilbert", "morton"} {
				b.Run(fmt.Sprintf("layout=%s/curve=%s/depth=%d", layout, curve, depth), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := BuildRecipe(m, layout, curve); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkBuildRecipeSerial runs the serial oracle (oracle_test.go) over
// the sweep above.
func BenchmarkBuildRecipeSerial(b *testing.B) {
	for _, depth := range []int{2, 4, 5} {
		m := ringMesh(b, 2, depth)
		for _, layout := range allLayouts() {
			for _, curve := range []string{"hilbert", "morton"} {
				b.Run(fmt.Sprintf("layout=%s/curve=%s/depth=%d", layout, curve, depth), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						if _, err := buildRecipeSerial(m, layout, curve); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkBuildRecipe3D covers the 3-D chained tree at the depth the
// acceptance experiment uses.
func BenchmarkBuildRecipe3D(b *testing.B) {
	m := ringMesh(b, 3, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildRecipe(m, ZMesh, "hilbert"); err != nil {
			b.Fatal(err)
		}
	}
}

func applyRestoreMesh(b *testing.B) (*Recipe, []float64) {
	b.Helper()
	m := ringMesh(b, 2, 4)
	r, err := BuildRecipe(m, ZMesh, "hilbert")
	if err != nil {
		b.Fatal(err)
	}
	return r, make([]float64, r.Len())
}

// BenchmarkApplyTo measures permutation throughput with a reused
// destination (the worker-pool hot path).
func BenchmarkApplyTo(b *testing.B) {
	r, flat := applyRestoreMesh(b)
	dst := make([]float64, r.Len())
	b.SetBytes(int64(len(flat) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = r.ApplyTo(dst, flat)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkApplyToSerial is the plain-loop oracle's baseline for
// BenchmarkApplyTo: the ratio between the two is the kernel speedup.
func BenchmarkApplyToSerial(b *testing.B) {
	r, flat := applyRestoreMesh(b)
	dst := make([]float64, r.Len())
	b.SetBytes(int64(len(flat) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = r.applyToSerial(dst, flat)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore measures the allocating restore path.
func BenchmarkRestore(b *testing.B) {
	r, flat := applyRestoreMesh(b)
	ordered, err := r.Apply(flat)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(flat) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Restore(ordered); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreToSerial is the straightforward-loop baseline for
// BenchmarkRestoreTo.
func BenchmarkRestoreToSerial(b *testing.B) {
	r, flat := applyRestoreMesh(b)
	ordered, err := r.Apply(flat)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, r.Len())
	b.SetBytes(int64(len(flat) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = r.restoreToSerial(dst, ordered)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreTo measures restore throughput with a reused destination.
func BenchmarkRestoreTo(b *testing.B) {
	r, flat := applyRestoreMesh(b)
	ordered, err := r.Apply(flat)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, r.Len())
	b.SetBytes(int64(len(flat) * 8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, err = r.RestoreTo(dst, ordered)
		if err != nil {
			b.Fatal(err)
		}
	}
}
