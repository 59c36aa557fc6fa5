//go:build race

package system

// raceEnabled reports a race-detector build. Under it sync.Pool drops
// items at random, so allocation counts stop being exact.
const raceEnabled = true
