//go:build !race

package federate

const raceEnabled = false
