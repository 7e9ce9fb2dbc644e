//go:build race

package vclock

// raceEnabled reports whether the race detector is compiled in; it makes
// sync.Pool drop items at random, so allocation guards skip themselves.
const raceEnabled = true
