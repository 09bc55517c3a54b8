//go:build race

package remediate

// raceEnabled reports that the race detector is on: it moves some stack
// objects to the heap, so allocation counts are not the build's.
const raceEnabled = true
