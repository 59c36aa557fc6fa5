//go:build !race

package sched_test

// raceEnabled reports a race-detector build (see raceon_test.go).
const raceEnabled = false
