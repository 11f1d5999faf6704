//go:build !race

package zmesh

const raceEnabled = false
