package zns

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file models the DMA, in both directions: a command's payload moves
// beside the simulation, not on the goroutine that submitted it. ReadSpan
// captures the zone bytes it returns under the device lock at submit and
// hands their copy into the host buffer to its command record as a job;
// WriteSpan, WritevSpan and AppendSpan apply everything but their payload
// at submit and hand its copy into zone memory to the record the same way.
// One package-level copier goroutine, outside the virtual clock and
// touching no device state, claims a job's chunks as it gets to them; the
// command's completion claims whatever is left and waits only for a chunk
// already being copied, so no future completes with its copy unfinished
// and the copier may fall arbitrarily behind (with GOMAXPROCS=1 the
// completions do all the work, as at copy-at-submit). Virtual time, event
// order and device state do not depend on who copied.
//
// The drain rule: no access to zone bytes may see or overtake a copy still
// in flight. A device operation that changes or recycles bytes below a
// write pointer, or captures them, first finishes the copies that touch
// them (drainCopiesLocked): ResetZone, CorruptSector and bit rot at persist
// and WriteZRWA below the write pointer drain the zone they change;
// PowerLoss/PowerLossAt and CrashClone every zone; a read drains its zone
// only while writes to it are still copying (zone.wcopies), so reads of
// other zones pay nothing. A pending read thus never sees bytes from after
// its submit, and nothing sees a write's bytes before they are in place.

// copyChunk is the unit a copy is claimed in: a 64 KiB command is four
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
// the copier exists before the first command is submitted.
func startCopier() {
	copierStart.Do(func() {
		go func() {
			for r := range copyJobs {
				r.j.claim(r.gen)
			}
		}()
	})
}

// sendCopy offers the job to the copier without blocking: when the copier
// is far behind (or ref names no job) the completion copies.
func sendCopy(ref copyRef) {
	if ref.j == nil {
		return
	}
	select {
	case copyJobs <- ref:
	default:
	}
}

// readCopy is one command's deferred copy of src, the concatenation of the
// slices listed there, into dst: a read's zone bytes (one slice, the part
// below the write pointer) into the caller's buffer, whose rest reads as
// zeroes, or a write's payload segments into zone memory. src is the
// record's own list, so a caller may reuse its scatter list at once. Chunks
// are claimed through state, which packs gen<<32 | chunks<<16 | next; done
// counts copied chunks.
type readCopy struct {
	dst   []byte
	src   [][]byte
	cs    int // chunk size
	gen   uint32
	state atomic.Uint64
	done  atomic.Uint32
}

// start arms the job for a new command and returns the reference the
// copier needs. Caller owns the record (d.mu held, not yet scheduled).
func (j *readCopy) start(dst []byte, src ...[]byte) copyRef {
	j.dst, j.src = dst, append(j.src[:0], src...)
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
			fill(j.dst, j.src, lo, min(lo+j.cs, len(j.dst)))
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

// reset drops the finished job's references, so a pooled record pins
// neither zone memory nor a caller's buffers.
func (j *readCopy) reset() {
	clear(j.src)
	j.dst, j.src = nil, j.src[:0]
}

// fill is the DMA for dst[lo:hi]: the bytes there of the concatenation of
// src, zeroes past its end. The jobs run it a chunk at a time, PrepareBatch
// once for the whole command at submit.
func fill(dst []byte, src [][]byte, lo, hi int) {
	pos := 0
	for _, s := range src {
		if lo >= hi {
			return
		}
		if end := pos + len(s); lo < end {
			lo += copy(dst[lo:hi], s[lo-pos:])
		}
		pos += len(s)
	}
	clear(dst[lo:hi])
}

// listCopyLocked records that c's copy, which touches zone z's bytes, is in
// flight. Caller holds d.mu.
func (d *Device) listCopyLocked(c *command, z int, write bool) {
	c.ci, c.cz, c.cw = len(d.copying), z, write
	d.copying = append(d.copying, c)
	if write {
		d.zones[z].wcopies++
	}
}

// unlistCopyLocked removes c from the in-flight copies. Caller holds d.mu.
func (d *Device) unlistCopyLocked(c *command) {
	last := len(d.copying) - 1
	d.copying[c.ci] = d.copying[last]
	d.copying[c.ci].ci = c.ci
	d.copying[last] = nil
	d.copying = d.copying[:last]
	c.ci = -1
	if c.cw {
		d.zones[c.cz].wcopies--
	}
}

// drainCopiesLocked finishes every copy in flight that touches zone z's
// bytes (every zone's when z < 0), before an access those copies must not
// be overtaken by. The records stay listed until their completions. Caller
// holds d.mu.
func (d *Device) drainCopiesLocked(z int) {
	for _, c := range d.copying {
		if z < 0 || c.cz == z {
			c.cp.finish()
		}
	}
}
