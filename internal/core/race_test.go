//go:build race

package core

// raceEnabled reports that the race detector is active; allocation-count
// tests are skipped because instrumentation allocates.
const raceEnabled = true
