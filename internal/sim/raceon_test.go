//go:build race

package sim_test

// raceEnabled reports a race-detector build. Under it sync.Pool drops
// items at random, so allocation budgets cannot be measured.
const raceEnabled = true
