//go:build race

package tcp

// raceEnabled reports that this binary was built with the race detector,
// under which sync.Pool drops items at random and allocation counts are not
// reproducible.
const raceEnabled = true
