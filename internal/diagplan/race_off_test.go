//go:build !race

package diagplan_test

const raceEnabled = false
