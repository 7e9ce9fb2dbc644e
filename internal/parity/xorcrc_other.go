//go:build !amd64 || purego || race

package parity

import (
	"hash/crc32"
	"runtime"
)

// vector is never set here; the tests that clear it to force the
// fallback find it cleared already.
var vector = false

// xorCRCKernel and crcKernel take nothing here: XORCRCInto's Go path and
// hash/crc32 do all of it. xorcrc_amd64.go has the assembly kernels; the
// race detector cannot see loads and stores made in assembly, so race
// builds use the Go path too.
func xorCRCKernel([]byte, [][]byte, []uint32, *crc32.Table) (k, m int) { return 0, 0 }

func crcKernel(crc uint32, _ []byte) (uint32, int) { return crc, 0 }

// kernelName and vectorMissing report the Go path (xorcrc_amd64.go).
func kernelName() string { return "go" }

func vectorMissing() string {
	return "amd64 assembly (this build: " + runtime.GOARCH + ", race or purego)"
}
