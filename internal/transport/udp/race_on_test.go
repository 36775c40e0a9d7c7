//go:build race

package udp

// raceEnabled reports that this binary was built with the race detector,
// under which allocation counts are not reproducible (see
// TestReliableReceiveAllocs).
const raceEnabled = true
