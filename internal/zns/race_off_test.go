//go:build !race

package zns

const raceEnabled = false
