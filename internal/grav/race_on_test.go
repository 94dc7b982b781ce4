//go:build race

package grav_test

// raceEnabled reports whether the race detector is active; it slows the walk
// enough that the 100k budget is left to plain runs.
const raceEnabled = true
