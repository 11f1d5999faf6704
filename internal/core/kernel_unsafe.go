//go:build !zmesh_portable

package core

import "unsafe"

// Unsafe-backed kernels: every indexed access — the permutation loads, the
// sequential side, and the random side — goes through raw pointer arithmetic,
// so the inner loops carry no bounds checks and no per-iteration slice-header
// construction. Memory safety rests on two guarantees:
//
//  1. ApplyTo/RestoreTo validate len(src) == len(dst) == len(perm) == r.n
//     before dispatching here.
//  2. Recipe.kernelSafe has verified, once per recipe, that every perm entry
//     lies in [0, r.n). Recipes built by this package satisfy that by
//     construction — the builders emit permutations of [0, n) — so the check
//     is pure defense in depth; a recipe that fails it is refused with an
//     error, never handed to these kernels.
//
// Build with -tags zmesh_portable to run the pure-Go reference loops instead
// (see kernel_portable.go).

// kernelUnsafe reports which kernel flavor this binary runs (surfaced in
// DESIGN.md's hot-path notes and the kernel tests).
const kernelUnsafe = true

// applyGather performs dst[t] = src[perm[t]], 8-wide: the eight index loads
// issue first, then the eight dependent gathered loads, so the random-access
// loads overlap in the load buffers instead of serializing.
func applyGather(dst, src []float64, perm []int32) {
	n := len(perm)
	if n == 0 {
		return
	}
	dp := unsafe.Pointer(unsafe.SliceData(dst))
	sp := unsafe.Pointer(unsafe.SliceData(src))
	pp := unsafe.Pointer(unsafe.SliceData(perm))
	i := 0
	for ; i+8 <= n; i += 8 {
		q := uintptr(i) << 2
		s0 := *(*int32)(unsafe.Add(pp, q))
		s1 := *(*int32)(unsafe.Add(pp, q+4))
		s2 := *(*int32)(unsafe.Add(pp, q+8))
		s3 := *(*int32)(unsafe.Add(pp, q+12))
		s4 := *(*int32)(unsafe.Add(pp, q+16))
		s5 := *(*int32)(unsafe.Add(pp, q+20))
		s6 := *(*int32)(unsafe.Add(pp, q+24))
		s7 := *(*int32)(unsafe.Add(pp, q+28))
		t := uintptr(i) << 3
		*(*float64)(unsafe.Add(dp, t)) = *(*float64)(unsafe.Add(sp, uintptr(s0)<<3))
		*(*float64)(unsafe.Add(dp, t+8)) = *(*float64)(unsafe.Add(sp, uintptr(s1)<<3))
		*(*float64)(unsafe.Add(dp, t+16)) = *(*float64)(unsafe.Add(sp, uintptr(s2)<<3))
		*(*float64)(unsafe.Add(dp, t+24)) = *(*float64)(unsafe.Add(sp, uintptr(s3)<<3))
		*(*float64)(unsafe.Add(dp, t+32)) = *(*float64)(unsafe.Add(sp, uintptr(s4)<<3))
		*(*float64)(unsafe.Add(dp, t+40)) = *(*float64)(unsafe.Add(sp, uintptr(s5)<<3))
		*(*float64)(unsafe.Add(dp, t+48)) = *(*float64)(unsafe.Add(sp, uintptr(s6)<<3))
		*(*float64)(unsafe.Add(dp, t+56)) = *(*float64)(unsafe.Add(sp, uintptr(s7)<<3))
	}
	for ; i < n; i++ {
		*(*float64)(unsafe.Add(dp, uintptr(i)<<3)) = *(*float64)(unsafe.Add(sp, uintptr(perm[i])<<3))
	}
}

// restoreScatter performs dst[perm[t]] = src[t], 4-wide. Scatters are
// store-bound, so the narrower unroll measures faster than 8-wide here: the
// store buffer fills before wider batching can help.
func restoreScatter(dst, src []float64, perm []int32) {
	n := len(perm)
	if n == 0 {
		return
	}
	dp := unsafe.Pointer(unsafe.SliceData(dst))
	sp := unsafe.Pointer(unsafe.SliceData(src))
	pp := unsafe.Pointer(unsafe.SliceData(perm))
	i := 0
	for ; i+4 <= n; i += 4 {
		q := uintptr(i) << 2
		t0 := *(*int32)(unsafe.Add(pp, q))
		t1 := *(*int32)(unsafe.Add(pp, q+4))
		t2 := *(*int32)(unsafe.Add(pp, q+8))
		t3 := *(*int32)(unsafe.Add(pp, q+12))
		s := uintptr(i) << 3
		*(*float64)(unsafe.Add(dp, uintptr(t0)<<3)) = *(*float64)(unsafe.Add(sp, s))
		*(*float64)(unsafe.Add(dp, uintptr(t1)<<3)) = *(*float64)(unsafe.Add(sp, s+8))
		*(*float64)(unsafe.Add(dp, uintptr(t2)<<3)) = *(*float64)(unsafe.Add(sp, s+16))
		*(*float64)(unsafe.Add(dp, uintptr(t3)<<3)) = *(*float64)(unsafe.Add(sp, s+24))
	}
	for ; i < n; i++ {
		*(*float64)(unsafe.Add(dp, uintptr(perm[i])<<3)) = *(*float64)(unsafe.Add(sp, uintptr(i)<<3))
	}
}
