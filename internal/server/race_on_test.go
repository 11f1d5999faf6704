//go:build race

package server

// raceEnabled: under the race detector sync.Pool drops a quarter of its Puts
// at random, so pins on pooled allocation do not hold.
const raceEnabled = true
