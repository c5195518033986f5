//go:build !race

package vm

const raceDetector = false
