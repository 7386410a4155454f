//go:build race

package netsim

// raceEnabled reports a -race build, where sync.Pool drops a random share
// of Puts on purpose, so allocation counts are not meaningful.
const raceEnabled = true
