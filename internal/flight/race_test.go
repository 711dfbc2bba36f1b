//go:build race

package flight

// raceEnabled is set under the race detector, which a single-goroutine
// differential test gives nothing to find.
const raceEnabled = true
