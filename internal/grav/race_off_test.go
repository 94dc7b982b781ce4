//go:build !race

package grav_test

const raceEnabled = false
