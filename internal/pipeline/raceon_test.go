//go:build race

package pipeline

// raceEnabled reports a race-detector build. Its instrumentation allocates
// on its own, so allocation budgets cannot be measured under it.
const raceEnabled = true
