//go:build race

package specio

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a random share of what it is given, so the number of
// allocations a parse makes varies from run to run.
const raceEnabled = true
