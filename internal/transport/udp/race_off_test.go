//go:build !race

package udp

const raceEnabled = false
