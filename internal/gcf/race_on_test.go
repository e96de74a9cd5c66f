//go:build race

package gcf

// raceEnabled excuses exact allocation counts: under the race detector
// sync.Pool drops a quarter of its Puts on purpose.
const raceEnabled = true
