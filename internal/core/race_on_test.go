//go:build race

package core

// raceEnabled: allocation counts are not exact under the race detector.
const raceEnabled = true
