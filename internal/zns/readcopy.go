package zns

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"raizn/internal/parity"
)

// This file models the DMA, in both directions: a command's payload moves
// beside the simulation, not on the goroutine that submitted it. ReadSpan
// captures the zone bytes it returns under the device lock at submit and
// hands their copy into the host buffer to its command record as a job;
// WriteSpan, WritevSpan and AppendSpan apply everything but their payload
// at submit and hand its copy into zone memory to the record the same way.
// A reconstruction (XORRead) is one job shared by several commands, on
// several devices: each ReadXORSpan captures its zone bytes at submit as a
// term, and once the owner seals it the job XORs the terms into the
// caller's buffer, all terms block by block (xorTerms). One package-level
// copier goroutine, outside the virtual clock and touching no device
// state, claims a job's chunks one at a time as it gets to them; the
// command's completion claims whatever is left in one step and waits only
// for a chunk already being copied, so no future completes with its copy
// unfinished and the copier may fall arbitrarily behind (with
// GOMAXPROCS=1 the completions do all the work, as at copy-at-submit).
// Virtual time, event order and device state do not depend on who copied.
// A copy into zone memory goes through dmaCopy, which streams its stores
// past the cache; a copy into a host buffer, which its caller reads next,
// is a plain copy.
//
// The drain rule: no access to zone bytes may see or overtake a copy still
// in flight. A device operation that changes or recycles bytes below a
// write pointer, or captures them, first finishes the copies that touch
// them (drainCopiesLocked): ResetZone, CorruptSector and bit rot at persist
// and a ZRWA write below the write pointer drain the zone they change;
// PowerLoss/PowerLossAt and CrashClone every zone; a read drains its zone
// only while writes to it are still copying (zone.wcopies), so reads of
// other zones pay nothing. A reconstruction's command is listed on the
// device its term reads from, so every survivor device of the job drains
// it: before Seal the drain XORs that one term into the buffer at once,
// after Seal it finishes the whole job. A pending read thus never sees
// bytes from after its submit, and nothing sees a write's bytes before
// they are in place.

// copyChunk is the unit a copy is claimed in: a 64 KiB command is four
// chunks that the copier and the completion can split between them.
const copyChunk = 16 << 10

// xorBlock is the step in which xorTerms goes through a segment's terms.
const xorBlock = 512

// copierPollCap caps the copier's poll budget (pollBudget): a parked
// copier started an offered job a median 9–12 µs later (p90 ≈ 63 µs, on 2
// cores, for randread, smallsync and smallsync_zraid), so polling longer
// than that costs more than the wake it saves, and a copier that never
// parked cost smallsync_zraid 52 % more CPU per op.
const copierPollCap = 50 * time.Microsecond

// pollBudget is the copier's earned poll time: out of jobs, it polls for
// the next for as long as it has spent copying multi-chunk jobs since it
// last parked, net of what it has polled, up to copierPollCap. A one-chunk
// job earns nothing: it is the kind the wake rule leaves to its
// completion, and a budget that every job earned cost smallsync_zraid
// 8 % more CPU per op where this one costs 3 %.
type pollBudget struct{ d time.Duration }

// earn adds the time spent copying a job of n chunks.
func (b *pollBudget) earn(n uint32, spent time.Duration) {
	if n > 1 {
		b.d = min(b.d+spent, copierPollCap)
	}
}

// spend takes polled time off the budget.
func (b *pollBudget) spend(polled time.Duration) { b.d = max(b.d-polled, 0) }

// reset empties the budget: the copier parked.
func (b *pollBudget) reset() { b.d = 0 }

// left is how long the copier may still poll.
func (b *pollBudget) left() time.Duration { return b.d }

// The wake rule: a copier parked on its channel is not woken for a job of
// one chunk (at most copyChunk bytes); that job's completion copies it.
// Such wakes were about a quarter of smallsync_zraid's host CPU per op,
// and a parked copier mostly reached the job after its completion had.

// copyRef names one job for the copier: the record and the generation the
// job was started under. A record recycled since carries a newer
// generation and the copier leaves it alone. n is the job's chunk count,
// taken with the record: sendCopy runs after d.mu is released, when the
// command may already have completed and reset the record's dst.
type copyRef struct {
	j   *readCopy
	gen uint32
	n   uint32
}

var (
	copyJobs     = make(chan copyRef, 1024)
	copierStart  sync.Once
	copierParked atomic.Bool // the copier is blocked receiving on copyJobs
	hostEpoch    = time.Now()
)

// hostNow is host monotonic time. It decides only who copies: no simulated
// value depends on it.
func hostNow() time.Duration { return time.Since(hostEpoch) }

// startCopier starts the package's copier goroutine; NewDevice calls it, so
// the copier exists before the first command is submitted.
func startCopier() {
	copierStart.Do(func() { go copier(copyJobs) })
}

// copier claims the jobs offered on jobs a chunk at a time. Out of jobs, it
// polls while its pollBudget lasts and then parks, saying so in
// copierParked for the wake rule.
func copier(jobs <-chan copyRef) {
	var b pollBudget
	for {
		r, ok := tryJob(jobs)
		if !ok {
			idle := hostNow()
			for !ok && hostNow()-idle < b.left() {
				runtime.Gosched()
				r, ok = tryJob(jobs)
			}
			if ok {
				b.spend(hostNow() - idle)
			} else {
				b.reset()
				copierParked.Store(true)
				r = <-jobs
				copierParked.Store(false)
			}
		}
		t := hostNow()
		b.earn(r.j.claim(r.gen, 1), hostNow()-t)
	}
}

func tryJob(jobs <-chan copyRef) (copyRef, bool) {
	select {
	case r := <-jobs:
		return r, true
	default:
		return copyRef{}, false
	}
}

// sendCopy offers the job to the copier without blocking: when the copier
// is far behind, or parked and the job is one chunk (the wake rule), or ref
// names no job, the completion copies.
func sendCopy(ref copyRef) {
	if ref.j == nil || ref.n <= 1 && copierParked.Load() {
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
// record's own list, so a caller may reuse its scatter list at once. As an
// XORRead's job (xor set) it instead XORs each term src[i] into dst at
// byte offset at[i], over dst's content or, with zero set, over zeroes.
// Chunks are claimed through state, which packs gen<<32 | chunks<<16 |
// next; done counts copied chunks.
type readCopy struct {
	dst   []byte
	src   [][]byte
	at    []int
	xor   bool
	zero  bool
	zone  bool // dst is zone memory: a write's job, filled through dmaCopy
	cs    int  // chunk size
	gen   uint32
	state atomic.Uint64
	done  atomic.Uint32
}

// start arms the job for a new command, whose dst is zone memory with zone
// set, and returns the reference the copier needs. Caller owns the record
// (d.mu held, not yet scheduled).
func (j *readCopy) start(dst []byte, zone bool, src ...[]byte) copyRef {
	j.dst, j.zone, j.src = dst, zone, append(j.src[:0], src...)
	return j.arm()
}

// arm opens a new generation over the job's dst and returns its reference.
func (j *readCopy) arm() copyRef {
	j.cs = max(copyChunk, (len(j.dst)+0xfffe)/0xffff)
	n := (len(j.dst) + j.cs - 1) / j.cs
	j.gen++
	j.done.Store(0)
	j.state.Store(uint64(j.gen)<<32 | uint64(n)<<16)
	return copyRef{j: j, gen: j.gen, n: uint32(n)}
}

// claim copies chunks of generation gen, taking up to most unclaimed ones
// per CAS, until none is left, and returns the job's chunk count (0 if gen
// was not the job's generation when claim began).
func (j *readCopy) claim(gen, most uint32) (n uint32) {
	for {
		s := j.state.Load()
		if uint32(s>>32) != gen {
			return n
		}
		k := uint32(s) & 0xffff
		if n = uint32(s>>16) & 0xffff; k >= n {
			return n
		}
		t := min(most, n-k)
		if j.state.CompareAndSwap(s, s+uint64(t)) {
			lo, hi := int(k)*j.cs, min(int(k+t)*j.cs, len(j.dst))
			if j.xor {
				xorTerms(j.dst, j.src, j.at, lo, hi, j.zero)
			} else {
				fill(j.dst, j.src, lo, hi, j.zone)
			}
			j.done.Add(t)
		}
	}
}

// finish takes every chunk the job has left in one claim, publishes them
// in done at once, and waits for chunks another goroutine is copying. Only
// the record's owner calls it: its completion, or a drain under the device
// lock.
func (j *readCopy) finish() {
	n := j.claim(j.gen, 0xffff)
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
// src, zeroes past its end; with zone, dst is zone memory and the segments
// go through dmaCopy. The jobs run it a chunk at a time, PrepareBatch once
// for the whole command at submit.
func fill(dst []byte, src [][]byte, lo, hi int, zone bool) {
	pos := 0
	for _, s := range src {
		if lo >= hi {
			return
		}
		if end := pos + len(s); lo < end {
			if zone {
				lo += dmaCopy(dst[lo:hi], s[lo-pos:])
			} else {
				lo += copy(dst[lo:hi], s[lo-pos:])
			}
		}
		pos += len(s)
	}
	clear(dst[lo:hi])
}

// xorTerms XORs into dst[lo:hi] the part there of every term src[i], which
// starts at dst offset at[i]; dst past a term's end is left as it is. With
// zero, dst[lo:hi] counts as zeroes whatever it holds: the first term is
// copied rather than XORed in, and a segment no term covers is cleared.
// Split at the terms' ends, each segment goes xorBlock bytes at a time
// through every term covering it: the terms sit in cold zone memory, where
// that measured faster than a pass per term over the whole chunk
// (EXPERIMENTS.md, PR 48).
func xorTerms(dst []byte, src [][]byte, at []int, lo, hi int, zero bool) {
	var buf [8][]byte
	for p := lo; p < hi; {
		q, terms := hi, buf[:0]
		for i, s := range src {
			if at[i] > p {
				q = min(q, at[i])
			} else if e := at[i] + len(s); e > p {
				q, terms = min(q, e), append(terms, s[p-at[i]:])
			}
		}
		if zero && len(terms) == 0 {
			clear(dst[p:q])
		}
		for b := p; b < q; b += xorBlock {
			e := min(q, b+xorBlock)
			for j, s := range terms {
				if j == 0 && zero {
					copy(dst[b:e], s[b-p:])
				} else {
					parity.XORInto(dst[b:e], s[b-p:e-p])
				}
			}
		}
		p = q
	}
}

// XORRead is one reconstruction read: dst, as its owner left it or
// zeroes, XORed with every term its reads capture. The owner arms it
// (Start), issues the reads (Device.ReadXORSpan, on any devices), may XOR
// bytes it holds itself into dst (Fold), and then calls Seal; the XOR of
// the terms then runs as one job, claimed in chunks by the copier and
// finished by the first of the reads' completions to come, so dst holds
// the result once any of them has completed and the owner may reuse x
// once all of them have. A read that completes or is drained before Seal
// XORs its term in at once, under x's lock. A sealed job with no read
// left to complete cannot be finished by anyone and is not offered to the
// copier: a reconstruction that issues no read has its first term as its
// result. The zero value is ready for Start; an XORRead must not be
// copied after first use.
type XORRead struct {
	mu     sync.Mutex
	job    readCopy
	live   int // reads issued and not yet completed
	sealed bool
}

// Start arms x for a reconstruction into dst. Its first term is dst's
// current content (parity the owner already holds), or zeroes with zero
// set: then dst is not read, and the job copies where it would XOR into
// zeroes, a pass over dst fewer. The reads of x's previous reconstruction
// must all have completed.
func (x *XORRead) Start(dst []byte, zero bool) {
	clear(x.job.src)
	x.job.dst, x.job.src, x.job.at, x.job.xor, x.job.zero = dst, x.job.src[:0], x.job.at[:0], true, zero
	x.live, x.sealed = 0, false
}

// Fold XORs b into dst at byte offset at, before Seal.
func (x *XORRead) Fold(at int, b []byte) {
	x.mu.Lock()
	x.zeroLocked()
	parity.XORInto(x.job.dst[at:at+len(b)], b)
	x.mu.Unlock()
}

// zeroLocked makes dst hold the zeroes it stands for, before anything is
// XORed into it ahead of the job. Caller holds x.mu.
func (x *XORRead) zeroLocked() {
	if x.job.zero {
		clear(x.job.dst)
		x.job.zero = false
	}
}

// Seal ends x's terms and hands their XOR to the copier, unless no read is
// left to complete (then every term is already in).
func (x *XORRead) Seal() {
	var ref copyRef
	x.mu.Lock()
	x.sealed = true
	if x.live > 0 {
		ref = x.job.arm()
	} else {
		x.zeroLocked()
	}
	x.mu.Unlock()
	sendCopy(ref)
}

// add records a read of x issued with src as its term (none when src is
// empty) and returns the term's index, -1 for none. Caller holds the
// reading device's lock.
func (x *XORRead) add(src []byte, at int) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.sealed {
		panic("zns: ReadXORSpan after Seal")
	}
	x.live++
	if len(src) == 0 {
		return -1
	}
	x.job.src, x.job.at = append(x.job.src, src), append(x.job.at, at)
	return len(x.job.src) - 1
}

// release is a drain of term t (-1: none), or with done the completion of
// its read. Before Seal the term is XORed in at once, so nothing reads its
// zone bytes afterwards; after Seal the whole job is finished.
func (x *XORRead) release(t int, done bool) {
	x.mu.Lock()
	if done {
		x.live--
	}
	if !x.sealed {
		if j := &x.job; t >= 0 && j.src[t] != nil {
			x.zeroLocked()
			parity.XORInto(j.dst[j.at[t]:j.at[t]+len(j.src[t])], j.src[t])
			j.src[t] = nil
		}
		x.mu.Unlock()
		return
	}
	x.mu.Unlock()
	x.job.finish()
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
			if c.x != nil {
				c.x.release(c.xt, false)
			} else {
				c.cp.finish()
			}
		}
	}
}
