//go:build race

package huffman

// raceEnabled: a race build compiles slices.Grow's append-of-make without
// the in-place extension, so the output array is allocated twice over, and
// sync.Pool drops Puts at random; byte-exact allocation pins do not hold.
const raceEnabled = true
