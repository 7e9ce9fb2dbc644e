//go:build race

package volmgr

// raceEnabled reports whether the race detector is compiled in; allocation
// guards skip themselves under -race.
const raceEnabled = true
