//go:build race

package vm

// raceDetector lets single-goroutine tests that run for minutes under
// instrumentation stand aside: the detector has nothing to find in them.
const raceDetector = true
