//go:build !race

package frag

const raceEnabled = false
