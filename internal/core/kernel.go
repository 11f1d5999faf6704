package core

// Permutation kernels behind Recipe.ApplyTo and Recipe.RestoreTo.
//
// A recipe application is a pure permutation: Apply gathers, dst[t] =
// src[perm[t]]; Restore scatters, dst[perm[t]] = src[t]. The straightforward
// range loops below pay a bounds check per random index, and the compiler
// cannot hoist it because it cannot prove perm's entries are in range. The
// unsafe kernels (kernel_unsafe.go, default build) remove that cost by
// running every access through raw pointers, justified by a one-time
// per-recipe validation that all perm entries lie in [0, n) — see
// Recipe.kernelSafe.
//
// The range loops stay as gatherSerial/scatterSerial: they are the whole hot
// path of a `-tags zmesh_portable` build (kernel_portable.go), and the
// differential oracle the tests hold the unsafe kernels to
// (oracle_test.go).

// gatherSerial is the reference gather loop.
func gatherSerial(dst, src []float64, perm []int32) {
	for t, s := range perm {
		dst[t] = src[s]
	}
}

// scatterSerial is the reference scatter loop.
func scatterSerial(dst, src []float64, perm []int32) {
	for t, s := range perm {
		dst[s] = src[t]
	}
}
