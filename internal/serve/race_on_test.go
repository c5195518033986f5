//go:build race

package serve

// raceDetector lets tests that push a whole encrypted inference through
// the server allow for an instrumented build: ten times the run time,
// and no agreement with constants measured without instrumentation.
const raceDetector = true
