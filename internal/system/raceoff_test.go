//go:build !race

package system

// raceEnabled reports a race-detector build (see raceon_test.go).
const raceEnabled = false
