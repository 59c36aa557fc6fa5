//go:build !race

package sim_test

// raceEnabled reports a race-detector build (see raceon_test.go).
const raceEnabled = false
