//go:build !race

package difftest

// raceEnabled reports a race-detector build (see raceon.go).
const raceEnabled = false
