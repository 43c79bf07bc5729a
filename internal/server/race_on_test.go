//go:build race

package server

// raceOn reports a -race build, where sync.Pool drops a share of its Puts on
// purpose, so allocation counts through the pooled handler scratch vary.
const raceOn = true
