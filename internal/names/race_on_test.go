//go:build race

package names

// raceEnabled reports that this binary was built with the race detector,
// whose instrumentation changes what escapes to the heap; the allocation
// pins skip under it.
const raceEnabled = true
