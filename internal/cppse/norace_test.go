//go:build !race

package cppse

const raceEnabled = false
