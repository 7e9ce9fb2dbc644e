//go:build race

package zns

// raceEnabled reports whether the race detector is compiled in; guards
// that compare allocation sizes skip themselves under -race.
const raceEnabled = true
