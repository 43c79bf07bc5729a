//go:build !race

package server

// raceOn reports a -race build (see race_on_test.go).
const raceOn = false
