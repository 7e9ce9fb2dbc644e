//go:build !amd64 || purego || race

package zns

// dmaCopy is copy for a destination in zone memory (dma_amd64.go streams
// it). The race detector cannot see stores made in assembly, so race
// builds use copy too and keep checking zone memory.
func dmaCopy(dst, src []byte) int { return copy(dst, src) }
