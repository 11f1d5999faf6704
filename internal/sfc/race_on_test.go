//go:build race

package sfc

// raceEnabled: allocation counts are not exact under the race detector.
const raceEnabled = true
