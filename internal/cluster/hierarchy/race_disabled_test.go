//go:build !race

package hierarchy

const raceEnabled = false
