//go:build race

package daemon

// raceEnabled reports whether the race detector is compiled in; tests
// that hammer the loop shorten their runs under it because
// instrumentation inflates every synchronisation operation by an order
// of magnitude.
const raceEnabled = true
