//go:build race

package sz

// raceEnabled: allocation counts are not exact under the race detector.
const raceEnabled = true
