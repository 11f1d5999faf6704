//go:build !race

package sz

const raceEnabled = false
