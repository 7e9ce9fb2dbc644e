//go:build !amd64 || purego || race

package parity

import "hash/crc32"

// xorCRCKernel takes nothing here: XORCRCInto's Go path does all of it.
// xorcrc_amd64.go has the assembly kernel; the race detector cannot see
// loads and stores made in assembly, so race builds use the Go path too.
func xorCRCKernel([]byte, [][]byte, []uint32, *crc32.Table) (k, m int) { return 0, 0 }
