//go:build race

package assertion

// raceEnabled reports whether the race detector is on: it moves some
// stack objects to the heap, so allocation counts are not the build's.
const raceEnabled = true
