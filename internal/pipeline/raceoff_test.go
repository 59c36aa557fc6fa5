//go:build !race

package pipeline

// raceEnabled reports a race-detector build (see raceon_test.go).
const raceEnabled = false
