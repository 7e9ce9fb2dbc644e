package zns

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file models the read DMA: a read's payload moves into the host
// buffer beside the simulation, not on the goroutine that submitted it.
// ReadSpan captures the source range under the device lock at submit (so
// what a read returns is still decided at its submit instant) and hands
// the copy to its command record as a readCopy job. One package-level
// copier goroutine, outside the virtual clock and touching no device state,
// claims the job's chunks as it gets to them; the command's completion
// claims whatever is left and waits only for a chunk already being copied,
// so no future completes with its buffer unfilled and the copier may fall
// arbitrarily behind (with GOMAXPROCS=1 the completions do all the work,
// as at copy-at-submit). Virtual time, event order and device state do not
// depend on who copied.
//
// The drain rule: a device operation that changes or recycles bytes below
// a write pointer — ResetZone, PowerLoss/PowerLossAt, CorruptSector and bit
// rot at persist, WriteZRWA below the write pointer — first finishes every
// copy the device has in flight (drainCopiesLocked), so a pending read never
// sees bytes from after its submit.

// copyChunk is the unit a read's copy is claimed in: a 64 KiB read is four
// chunks that the copier and the completion can split between them.
const copyChunk = 16 << 10

// copyRef names one job for the copier: the record and the generation the
// job was started under. A record recycled since carries a newer generation
// and the copier leaves it alone.
type copyRef struct {
	j   *readCopy
	gen uint32
}

var (
	copyJobs    = make(chan copyRef, 1024)
	copierStart sync.Once
)

// startCopier starts the package's copier goroutine; NewDevice calls it, so
// the copier exists before the first read is submitted.
func startCopier() {
	copierStart.Do(func() {
		go func() {
			for r := range copyJobs {
				r.j.claim(r.gen)
			}
		}()
	})
}

// readCopy is one read's deferred copy of src into dst, where src is the
// zone bytes below the write pointer at submit and dst the caller's buffer:
// dst[len(src):] reads as zeroes. Chunks are claimed through state, which
// packs gen<<32 | chunks<<16 | next; done counts copied chunks.
type readCopy struct {
	dst, src []byte
	cs       int // chunk size
	gen      uint32
	state    atomic.Uint64
	done     atomic.Uint32
}

// start arms the job for a new read and returns the reference the copier
// needs. Caller owns the record (d.mu held, not yet scheduled).
func (j *readCopy) start(dst, src []byte) copyRef {
	j.dst, j.src = dst, src
	j.cs = max(copyChunk, (len(dst)+0xfffe)/0xffff)
	n := (len(dst) + j.cs - 1) / j.cs
	j.gen++
	j.done.Store(0)
	j.state.Store(uint64(j.gen)<<32 | uint64(n)<<16)
	return copyRef{j, j.gen}
}

// claim copies chunks of generation gen until none is left unclaimed and
// returns the job's chunk count (0 if gen is not the job's generation).
func (j *readCopy) claim(gen uint32) uint32 {
	for {
		s := j.state.Load()
		n, k := uint32(s>>16)&0xffff, int(s&0xffff)
		if uint32(s>>32) != gen {
			return 0
		}
		if k >= int(n) {
			return n
		}
		if j.state.CompareAndSwap(s, s+1) {
			lo := k * j.cs
			fillRead(j.dst, j.src, lo, min(lo+j.cs, len(j.dst)))
			j.done.Add(1)
		}
	}
}

// finish copies whatever the job has left and waits for chunks another
// goroutine is copying. Only the record's owner calls it: its completion,
// or a drain under the device lock.
func (j *readCopy) finish() {
	n := j.claim(j.gen)
	for j.done.Load() < n {
		runtime.Gosched()
	}
}

// fillRead is the read DMA for dst[lo:hi]: the bytes of src there, zeroes
// past its end. ReadSpan's jobs run it a chunk at a time, PrepareBatch
// once for the whole buffer at submit.
func fillRead(dst, src []byte, lo, hi int) {
	n := 0
	if lo < len(src) {
		n = copy(dst[lo:hi], src[lo:])
	}
	clear(dst[lo+n : hi])
}

// listCopyLocked records a read whose copy is in flight. Caller holds d.mu.
func (d *Device) listCopyLocked(c *command) {
	c.ci = len(d.copying)
	d.copying = append(d.copying, c)
}

// unlistCopyLocked removes c from the in-flight copies. Caller holds d.mu.
func (d *Device) unlistCopyLocked(c *command) {
	last := len(d.copying) - 1
	d.copying[c.ci] = d.copying[last]
	d.copying[c.ci].ci = c.ci
	d.copying[last] = nil
	d.copying = d.copying[:last]
	c.ci = -1
}

// drainCopiesLocked finishes every copy the device has in flight, before a
// mutation of bytes those reads may still copy. The records stay listed
// until their completions. Caller holds d.mu.
func (d *Device) drainCopiesLocked() {
	for _, c := range d.copying {
		c.cp.finish()
	}
}
