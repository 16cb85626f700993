//go:build race

package cppse

// raceEnabled reports that the race detector is active; allocation-count
// assertions are skipped because race-mode sync.Pool drops pooled scratch.
const raceEnabled = true
