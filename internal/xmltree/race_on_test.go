//go:build race

package xmltree

// raceEnabled reports that the race detector is compiled in; its runtime
// allocates on its own, so allocation-count tests skip.
const raceEnabled = true
