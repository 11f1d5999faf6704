package core

// LSD radix sort for orderEntry slices, replacing the comparison sort on the
// recipe-construction hot path. Curve keys are uint64, so eight stable
// byte-wide passes suffice; passes whose byte is constant across the input
// (the common case — keys use only 2*cbits or 3*cbits low bits) are skipped
// after a counting scan. Stability plus the fact that builders generate
// entries in ascending pos order means equal keys keep their pos order,
// matching the comparator's explicit pos tie-break exactly.

// radixThreshold is the size below which insertion sort beats the counting
// passes.
const radixThreshold = 48

// orderEntry pairs a curve key with a stream position for sorting.
type orderEntry struct {
	key uint64
	pos int32
}

// radixSortEntries sorts entries in place by key ascending (stable). scratch
// must be at least len(entries) long; it is used as the ping-pong buffer so
// repeated sorts (one per level or per tree) allocate nothing.
func radixSortEntries(entries, scratch []orderEntry) {
	n := len(entries)
	if n < 2 {
		return
	}
	if n < radixThreshold {
		insertionSortEntries(entries)
		return
	}
	src, dst := entries, scratch[:n]
	inSrc := true // does src alias entries?
	var counts [256]int
	for shift := uint(0); shift < 64; shift += 8 {
		for i := range counts {
			counts[i] = 0
		}
		for i := range src {
			counts[byte(src[i].key>>shift)]++
		}
		if counts[byte(src[0].key>>shift)] == n {
			continue // whole input shares this byte: pass is the identity
		}
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for i := range src {
			b := byte(src[i].key >> shift)
			dst[counts[b]] = src[i]
			counts[b]++
		}
		src, dst = dst, src
		inSrc = !inSrc
	}
	if !inSrc {
		copy(entries, src)
	}
}

// insertionSortEntries is the small-input fallback: stable, in place.
func insertionSortEntries(entries []orderEntry) {
	for i := 1; i < len(entries); i++ {
		e := entries[i]
		j := i - 1
		for j >= 0 && entries[j].key > e.key {
			entries[j+1] = entries[j]
			j--
		}
		entries[j+1] = e
	}
}
