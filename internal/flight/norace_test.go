//go:build !race

package flight

const raceEnabled = false
