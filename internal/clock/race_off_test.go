//go:build !race

package clock

// raceEnabled reports whether the race detector is on: it moves some
// stack objects to the heap, so allocation counts are not the build's.
const raceEnabled = false
