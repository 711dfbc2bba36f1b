//go:build race

package hierarchy

// raceEnabled reports whether the race detector is compiled in; it
// allocates on its own, so allocation gates allow for it.
const raceEnabled = true
