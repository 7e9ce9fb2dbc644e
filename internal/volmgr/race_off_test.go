//go:build !race

package volmgr

const raceEnabled = false
