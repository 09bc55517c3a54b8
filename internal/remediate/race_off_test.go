//go:build !race

package remediate

const raceEnabled = false
