//go:build !race

package logging

const raceEnabled = false
