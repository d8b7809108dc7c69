//go:build race

package pagestore

// raceEnabled reports that the race detector is compiled in; its runtime
// allocates on its own, so allocation-count checks skip.
const raceEnabled = true
