//go:build race

package serve

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a random share of what it is given, so the number of
// allocations a request makes varies from run to run.
const raceEnabled = true
