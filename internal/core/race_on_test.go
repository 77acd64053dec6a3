//go:build race

package core

// raceEnabled reports that the race detector is active: its builds run
// the sweeps many times slower and their sync.Pools drop items, so the
// allocation ceilings of the parallel sweeps and the long NnzLU sweep over
// every Table I class are not run there.
const raceEnabled = true
