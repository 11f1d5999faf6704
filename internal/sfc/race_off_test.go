//go:build !race

package sfc

const raceEnabled = false
