//go:build race

package serve

// raceEnabled reports that the race detector is active: sync.Pool
// deliberately drops items under -race, so the request scratch is not
// reliably reused and allocation assertions are meaningless there.
const raceEnabled = true
