//go:build !race

package poddiagnosis

const raceEnabled = false
