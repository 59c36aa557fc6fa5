//go:build race

package sched_test

// raceEnabled reports a race-detector build, under which the miscompile
// sweep runs a smaller slice.
const raceEnabled = true
