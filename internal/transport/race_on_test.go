//go:build race

package transport

// raceEnabled reports that this binary was built with the race detector,
// under which allocation counts are not reproducible.
const raceEnabled = true
