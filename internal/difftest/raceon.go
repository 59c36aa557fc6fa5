//go:build race

package difftest

// raceEnabled reports a race-detector build, under which a row runs only
// its first ids.
const raceEnabled = true
