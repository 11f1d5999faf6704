//go:build zmesh_portable

package core

// Portable kernel selection: with -tags zmesh_portable the reference loops
// are the hot path, for a build with no unsafe imports on it. Gather/scatter
// is ~5 % of a compress, so a tuned-but-safe middle tier bought under 1 % of
// request time and was dropped; everything else — the per-recipe range
// validation, the differential tests — is identical.

// kernelUnsafe reports which kernel flavor this binary runs.
const kernelUnsafe = false

func applyGather(dst, src []float64, perm []int32) { gatherSerial(dst, src, perm) }

func restoreScatter(dst, src []float64, perm []int32) { scatterSerial(dst, src, perm) }
