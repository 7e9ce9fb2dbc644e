package zns

import (
	"time"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// scheduleLocked arranges for fut (nil: a new future, returned) to
// complete at p.at with p.err, applying p's persistence effects (under the
// device lock) first — unless the device lost power in the meantime, in
// which case the IO completes with ErrPowerLoss and the effects are
// discarded. The span (nil when tracing is off) is ended with the
// command's outcome at the same instant. The completion is a timer
// callback (vclock.AfterNotify) on a command record from the device's free
// list: no closure, no goroutine, and no allocation once the list has
// grown to the device's peak queue depth; whatever is subscribed to fut
// runs in it. Caller holds d.mu.
func (d *Device) scheduleLocked(sp *obs.Span, fut *vclock.Future, p pendingIO) *vclock.Future {
	c := d.commandLocked(sp, fut, p)
	d.clk.AfterNotify(p.at-d.clk.Now(), c)
	return c.fut
}

// commandLocked takes a command record off the free list (or makes one)
// and fills it for the command scheduleLocked describes, without
// scheduling it. Caller holds d.mu.
func (d *Device) commandLocked(sp *obs.Span, fut *vclock.Future, p pendingIO) *command {
	if fut == nil {
		fut = d.clk.NewFuture()
	}
	var c *command
	if n := len(d.cmds); n > 0 {
		c, d.cmds = d.cmds[n-1], d.cmds[:n-1]
	} else {
		c = &command{d: d, ci: -1}
	}
	c.sp, c.fut, c.epoch, c.p = sp, fut, d.epoch, p
	return c
}

// command is one device command in flight, and the timer event that
// completes it. A read's copy into the host buffer, or a write's into zone
// memory, rides on it as cp (readcopy.go); a reconstruction read's rides
// on its XORRead x as term xt (-1: none). While that copy is in flight ci
// is the record's index in d.copying (else -1), cz the zone the copy
// touches and cw whether it is a write's.
type command struct {
	d     *Device
	sp    *obs.Span
	fut   *vclock.Future
	epoch uint64 // d.epoch at submit: a power loss since voids the command
	p     pendingIO
	ci    int
	cz    int
	cw    bool
	cp    readCopy
	x     *XORRead
	xt    int
}

// Notify completes the command (vclock.Notifier). The command's copy is
// finished first, outside the device lock, and before a write's FUA
// persists anything: the future never completes with its copy unfinished
// (a reconstruction read's copy is its XORRead's whole job, once sealed).
// The record is back on the free list before the future completes, because
// a subscriber may submit to this device from inside Complete.
func (c *command) Notify(error) {
	d := c.d
	if c.x != nil {
		c.x.release(c.xt, true)
	} else if c.cp.dst != nil {
		c.cp.finish()
	}
	d.mu.Lock()
	if c.ci >= 0 {
		d.unlistCopyLocked(c)
	}
	stale := d.epoch != c.epoch
	if !stale {
		d.applyEffectLocked(&c.p)
	}
	sp, fut, at, err := c.sp, c.fut, c.p.at, c.p.err
	if stale {
		err = ErrPowerLoss
	}
	c.sp, c.fut, c.p, c.x = nil, nil, pendingIO{}, nil
	c.cp.reset()
	d.cmds = append(d.cmds, c)
	d.mu.Unlock()
	sp.EndAt(at, err)
	fut.Complete(err)
}

// pendingIO is the completion half of a command whose state has already
// been applied at submit: the absolute virtual finish time, the error to
// deliver (latent read faults), and the persistence side effects to run
// under the device lock at completion time. schedule delivers one; it is
// also what PrepareBatch collects per command so one walker goroutine can
// deliver a whole batch's completions.
type pendingIO struct {
	at     time.Duration // absolute completion time
	err    error         // completion-time error (e.g. ErrReadMedium)
	snap   []zoneWP      // flush/preflush WP snapshot to persist, or nil
	fuaZ   int           // zone to persist through fuaEnd, or -1
	fuaEnd int64
}

// applyEffectLocked runs the pendingIO's persistence side effects.
// Caller holds d.mu.
func (d *Device) applyEffectLocked(p *pendingIO) {
	if p.snap != nil {
		d.persistSnapshotLocked(p.snap)
	}
	if p.fuaZ >= 0 {
		d.persistZoneLocked(p.fuaZ, p.fuaEnd)
	}
}

// reservePipe allocates occupancy on a pipe (busy is the pipe's busy-until
// field) and returns the transfer's finish time. Caller holds d.mu.
func reservePipe(busy *time.Duration, now time.Duration, occupancy time.Duration) time.Duration {
	start := now
	if *busy > start {
		start = *busy
	}
	*busy = start + occupancy
	return *busy
}

// markPipe records when a command will reach the head of a pipe whose
// busy-until is busy: immediately if the pipe is idle, else when the
// commands ahead of it drain.
func markPipe(sp *obs.Span, busy, now time.Duration) {
	if sp == nil {
		return
	}
	start := now
	if busy > start {
		start = busy
	}
	sp.MarkAt(obs.PhaseQueue, start)
}

func (d *Device) xferTime(n int, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// failSpan ends the span with an immediate submission error and completes
// fut with it; a nil fut gets a pre-completed future.
func (d *Device) failSpan(sp *obs.Span, fut *vclock.Future, err error) *vclock.Future {
	sp.End(err)
	if fut == nil {
		return d.clk.Completed(err)
	}
	fut.Complete(err)
	return fut
}

// slowLocked inflates a pipe occupancy by the injected slowdown factor
// (see SetSlowdown). Caller holds d.mu.
func (d *Device) slowLocked(occ time.Duration) time.Duration {
	if d.slowFactor > 1 {
		occ = time.Duration(float64(occ) * d.slowFactor)
	}
	return occ
}

// checkSpan validates that [sector, sector+n) lies inside a single zone's
// writable capacity and returns the zone index and zone-relative offset.
func (d *Device) checkSpan(sector int64, nSectors int64) (z int, off int64, err error) {
	if sector < 0 || nSectors <= 0 || sector+nSectors > d.NumSectors() {
		return 0, 0, ErrOutOfRange
	}
	z = d.ZoneOf(sector)
	off = sector - d.ZoneStart(z)
	if off+nSectors > d.cfg.ZoneCap {
		if off+nSectors > d.cfg.ZoneSize {
			return 0, 0, ErrZoneBoundary
		}
		return 0, 0, ErrOutOfRange // inside the cap..size gap
	}
	return z, off, nil
}

// Write submits a sequential write of data at the absolute sector. The
// write must start exactly at the zone's write pointer, or with the ZRWA
// flag inside the zone's random write area (ext.go). Its state (write
// pointer, durability bookkeeping) is applied at submit; the returned
// future completes when the transfer is done. With Preflush, the device
// cache is flushed first; with FUA, the write and all data before it in the
// same zone are persistent once the future completes.
//
// Fill by completion: what the zone holds from the write's submit instant
// on is data, but the bytes move into zone memory — the modelled DMA —
// beside the simulation, any time up to the completion (readcopy.go); an
// access to them before that finishes the copy first. data belongs to the
// device until the returned future completes, as a bio's pages belong to
// the block layer: the caller must not change it before, and has it back
// once the future is done, whatever the outcome. The rule holds for Writev
// (whose scatter list, but not the bytes it points at, is the caller's
// again at return) and Append; a ZRWA write and the batched commands of
// PrepareBatch still copy at submit (TestPayloadOwnedUntilCompletion,
// TestPayloadCopiedAtSubmit).
//
// Caller-owned completion: a command allocates nothing when the caller
// supplies its future (the fut argument of every Span variant: WriteSpan,
// WritevSpan, AppendSpan, ReadSpan, FlushSpan, ResetZoneSpan,
// FinishZoneSpan; a ZRWA write is one of the first three). The device
// completes exactly that future — with the submission error too, when it
// rejects the command — and returns it; a nil fut makes the device
// allocate one.
func (d *Device) Write(sector int64, data []byte, flags Flag) *vclock.Future {
	return d.WriteSpan(nil, nil, sector, data, flags)
}

// WriteSpan is Write with a tracing span, completing fut (nil: a new
// future): the device marks the span's queue and media phases and ends it
// when the command completes.
func (d *Device) WriteSpan(sp *obs.Span, fut *vclock.Future, sector int64, data []byte, flags Flag) *vclock.Future {
	_, fut = d.submitWrite(sp, fut, -1, sector, data, nil, flags)
	return fut
}

// Writev submits one sequential write command whose payload is gathered
// from segs (an NVMe-style scatter list). The command is a single device
// command: it pays WriteOpOverhead once and occupies the write pipe for
// one transfer of the combined length, which is what makes host-side
// sub-IO coalescing visible in simulated time. Semantics are otherwise
// identical to Write of the concatenated payload. The command record keeps
// its own copy of segs: the caller may reuse the list itself at once, the
// segments' bytes only once the future completes.
func (d *Device) Writev(sector int64, segs [][]byte, flags Flag) *vclock.Future {
	return d.WritevSpan(nil, nil, sector, segs, flags)
}

// WritevSpan is Writev with a tracing span, completing fut (nil: a new
// future); the span additionally records the scatter-list segment count.
func (d *Device) WritevSpan(sp *obs.Span, fut *vclock.Future, sector int64, segs [][]byte, flags Flag) *vclock.Future {
	if len(segs) == 1 {
		return d.WriteSpan(sp, fut, sector, segs[0], flags)
	}
	_, fut = d.submitWrite(sp, fut, -1, sector, nil, segs, flags)
	return fut
}

// Append submits a zone append to zone z: the device assigns the write
// position (the current write pointer) and returns it immediately along
// with the completion future. Real devices report the assigned LBA at
// completion; the simulator can assign it at submit because command
// processing is serialized, which is strictly less reordering than the
// spec permits. data is the device's until the future completes (Write).
func (d *Device) Append(z int, data []byte, flags Flag) (int64, *vclock.Future) {
	return d.AppendSpan(nil, nil, z, data, flags)
}

// AppendSpan is Append with a tracing span, completing fut (nil: a new
// future).
func (d *Device) AppendSpan(sp *obs.Span, fut *vclock.Future, z int, data []byte, flags Flag) (int64, *vclock.Future) {
	if z < 0 || z >= d.cfg.NumZones {
		return -1, d.failSpan(sp, fut, ErrOutOfRange)
	}
	return d.submitWrite(sp, fut, z, 0, data, nil, flags)
}

// submitWrite is every write command: at sector or, with z >= 0, appended
// at zone z's write pointer. The payload is data, or segs gathered (nil for
// one segment). writeApplyLocked applies it; its copy into zone memory is
// armed on the command record and offered to the copier once the lock is
// released, except a ZRWA write's, which is copied here at submit (ext.go).
// Returns the sector written at (-1 on error) and fut (nil: a new future).
func (d *Device) submitWrite(sp *obs.Span, fut *vclock.Future, z int, sector int64, data []byte, segs [][]byte, flags Flag) (int64, *vclock.Future) {
	n, ss := len(data), d.cfg.SectorSize
	ok := segs != nil || n%ss == 0
	for _, s := range segs {
		ok = ok && len(s) > 0 && len(s)%ss == 0
		n += len(s)
	}
	if n == 0 || !ok {
		return -1, d.failSpan(sp, fut, ErrUnaligned)
	}
	hook := "zns.cmd.write"
	d.mu.Lock()
	if z >= 0 {
		sector, hook = d.ZoneStart(z)+d.zones[z].wp, "zns.cmd.append"
	}
	if flags&ZRWA != 0 {
		hook = "zns.cmd.zrwa"
	}
	pio, dst, err := d.writeApplyLocked(sp, sector, int64(n/ss), segs, flags)
	if err != nil {
		d.mu.Unlock()
		return -1, d.failSpan(sp, fut, err)
	}
	c := d.commandLocked(sp, fut, pio)
	var ref copyRef
	if dst != nil {
		if segs == nil {
			ref = c.cp.start(dst, true, data)
		} else {
			ref = c.cp.start(dst, true, segs...)
		}
		if flags&ZRWA != 0 {
			c.cp.finish()
			ref = copyRef{}
		} else {
			d.listCopyLocked(c, d.ZoneOf(sector), true)
		}
	}
	d.clk.AfterNotify(pio.at-d.clk.Now(), c)
	hf := d.hookLocked(hook, d.ZoneOf(sector), sector)
	d.mu.Unlock()
	sendCopy(ref)
	fire(hf)
	return sector, c.fut
}

// writeApplyLocked is the submit half of a write: it validates the
// command, applies write-pointer state and reserves the write pipe,
// returning the pending completion and the zone bytes the payload goes to
// (nil with DiscardData), which the caller fills: by a copy job or at once
// (submitWrite, PrepareBatch). A write starts at the write pointer or,
// with ZRWA, anywhere in the window [wp-ZRWASectors, wp]; an overwrite in
// place first drains the zone's copies, and only the part past the write
// pointer advances it and joins the unflushed extents. segs is the
// gathered payload, nil for a single segment; only its segment count is
// used. Caller holds d.mu and is responsible for delivering the
// completion (schedule or a batch walker).
func (d *Device) writeApplyLocked(sp *obs.Span, sector, nSectors int64, segs [][]byte, flags Flag) (pendingIO, []byte, error) {
	if d.failed {
		return pendingIO{}, nil, ErrDeviceFailed
	}
	z, off, err := d.checkSpan(sector, nSectors)
	if err != nil {
		return pendingIO{}, nil, err
	}
	zo := &d.zones[z]
	switch zo.state {
	case ZoneFull:
		return pendingIO{}, nil, ErrZoneFull
	case ZoneReadOnly, ZoneOffline:
		return pendingIO{}, nil, ErrZoneUnavailable
	}
	switch {
	case flags&ZRWA == 0:
		if off != zo.wp {
			return pendingIO{}, nil, ErrNotSequential
		}
	case d.cfg.ZRWASectors <= 0:
		return pendingIO{}, nil, ErrNoZRWA
	case off < max(zo.wp-d.cfg.ZRWASectors, 0) || off > zo.wp:
		return pendingIO{}, nil, ErrOutsideZRWA
	}
	if err := d.transitionToOpenLocked(z); err != nil {
		return pendingIO{}, nil, err
	}

	// A preflush acts on everything written before this command, so the
	// snapshot is taken before the command's own extent exists; FUA
	// handling below covers the write itself if requested.
	var flushSnap []zoneWP
	if flags&Preflush != 0 {
		flushSnap = d.snapshotWPsLocked()
	}

	// Advance the write pointer at submit time; from now until the zone is
	// reset (or the ZRWA overwrites it) [off, end) holds this write's
	// payload, once its copy lands (the drain rule, readcopy.go).
	end := off + nSectors
	if off < zo.wp {
		d.drainCopiesLocked(z) // an overwrite in place
	}
	var dst []byte
	if !d.cfg.DiscardData {
		ss := int64(d.cfg.SectorSize)
		dst = d.zoneBufLocked(zo)[off*ss : end*ss]
	}
	if end > zo.wp {
		zo.unflushed = append(zo.unflushed, extent{start: zo.wp, end: end})
		zo.wp = end
	}
	zo.zrwa = zo.zrwa || flags&ZRWA != 0
	d.finalizeFullLocked(z)
	d.programLocked(z)
	d.hostWriteBytes += nSectors * int64(d.cfg.SectorSize)
	d.writeCmds++
	d.jrn.Record(obs.EvDevWrite, d.jslot, z, off, nSectors, zo.wp, int64(flags&(FUA|Preflush)))

	now := d.clk.Now()
	occ := d.cfg.WriteOpOverhead + d.xferTime(int(nSectors)*d.cfg.SectorSize, d.cfg.WriteBandwidth)
	if flags&Preflush != 0 {
		occ += d.cfg.FlushLatency
	}
	occ = d.slowLocked(occ)
	if sp != nil {
		nseg := 1
		if segs != nil {
			nseg = len(segs)
		}
		sp.SetSegs(nseg)
		markPipe(sp, d.writeBusy, now)
	}
	media := reservePipe(&d.writeBusy, now, occ)
	sp.MarkAt(obs.PhaseMedia, media)
	done := media + d.cfg.WriteLatency

	pio := pendingIO{at: done, snap: flushSnap, fuaZ: -1}
	if flags&FUA != 0 {
		pio.fuaZ, pio.fuaEnd = z, end
	}
	return pio, dst, nil
}

// Read fills buf with data starting at the absolute sector. Reads below
// the write pointer return the written payload; reads above it fail,
// except in full (finished) zones where unwritten sectors read as zeroes
// (deallocated blocks).
//
// Snapshot at submit, fill by completion: what the read returns is the
// zone's content at the submit instant, but the bytes move into buf — the
// modelled DMA — beside the simulation, any time up to the completion
// (readcopy.go). buf belongs to the device until the returned future
// completes: the caller must not read or reuse it before, and has it back,
// filled, once the future is done, whatever the outcome (a command voided
// by power loss still fills it).
func (d *Device) Read(sector int64, buf []byte) *vclock.Future {
	return d.ReadSpan(nil, nil, sector, buf)
}

// ReadSpan is Read with a tracing span, completing fut (nil: a new
// future). The copy is a job on the command record: the package's copier
// goroutine and the command's completion split it.
func (d *Device) ReadSpan(sp *obs.Span, fut *vclock.Future, sector int64, buf []byte) *vclock.Future {
	if len(buf) == 0 || len(buf)%d.cfg.SectorSize != 0 {
		return d.failSpan(sp, fut, ErrUnaligned)
	}
	nSectors := int64(len(buf) / d.cfg.SectorSize)

	d.mu.Lock()
	pio, src, err := d.readApplyLocked(sp, sector, nSectors)
	var ref copyRef
	if err == nil {
		c := d.commandLocked(sp, fut, pio)
		ref = c.cp.start(buf, false, src)
		d.listCopyLocked(c, d.ZoneOf(sector), false)
		d.clk.AfterNotify(pio.at-d.clk.Now(), c)
		fut = c.fut
	}
	d.mu.Unlock()
	if err != nil {
		return d.failSpan(sp, fut, err)
	}
	sendCopy(ref)
	return fut
}

// ReadXORSpan is ReadSpan for a reconstruction: the size bytes at sector,
// as Read would return them, are XORed into x's buffer at byte offset at
// (a span past a finished zone's write pointer adds zeroes there). The
// bytes are captured at submit, as a read's; the XOR runs as x's job once
// its owner seals it (XORRead). Completes fut (nil: a new future).
func (d *Device) ReadXORSpan(sp *obs.Span, fut *vclock.Future, sector int64, x *XORRead, at, size int) *vclock.Future {
	if size <= 0 || size%d.cfg.SectorSize != 0 || at < 0 || at+size > len(x.job.dst) {
		return d.failSpan(sp, fut, ErrUnaligned)
	}
	d.mu.Lock()
	pio, src, err := d.readApplyLocked(sp, sector, int64(size/d.cfg.SectorSize))
	if err == nil {
		c := d.commandLocked(sp, fut, pio)
		c.x, c.xt = x, x.add(src, at)
		if c.xt >= 0 {
			d.listCopyLocked(c, d.ZoneOf(sector), false)
		}
		d.clk.AfterNotify(pio.at-d.clk.Now(), c)
		fut = c.fut
	}
	d.mu.Unlock()
	if err != nil {
		return d.failSpan(sp, fut, err)
	}
	return fut
}

// readApplyLocked is the submit half of Read: it validates the span,
// captures the payload source — the zone's bytes from the read's start to
// the lesser of its end and the write pointer; fill copies them and
// zeroes the rest of the buffer — charges the read pipe and returns the
// pending completion (whose err field carries any latent media error).
// Caller holds d.mu.
func (d *Device) readApplyLocked(sp *obs.Span, sector, nSectors int64) (pendingIO, []byte, error) {
	if d.failed {
		return pendingIO{}, nil, ErrDeviceFailed
	}
	z, off, err := d.checkSpan(sector, nSectors)
	if err != nil {
		return pendingIO{}, nil, err
	}
	zo := &d.zones[z]
	if zo.state == ZoneOffline {
		return pendingIO{}, nil, ErrZoneUnavailable
	}
	if off+nSectors > zo.wp && zo.state != ZoneFull {
		return pendingIO{}, nil, ErrReadBeyondWP
	}
	zo.reads++

	// The source is fixed at submit. Zones are immutable below the write
	// pointer once the writes' copies have landed — finished here first
	// if the zone still has some in flight — and every operation that
	// changes or recycles bytes there first finishes the copies in flight
	// (drainCopiesLocked), so the read returns exactly these bytes, even if
	// the zone is reset, rewritten or rotted before it completes. Bytes at
	// or above the write pointer are never copied out (zone buffers are
	// recycled unzeroed): the tail of a full zone reads as zeroes.
	ss := int64(d.cfg.SectorSize)
	var src []byte
	if !d.cfg.DiscardData && zo.data != nil && off < zo.wp {
		if zo.wcopies > 0 {
			d.drainCopiesLocked(z)
		}
		src = zo.data[off*ss : min(off+nSectors, zo.wp)*ss]
	}
	d.hostReadBytes += nSectors * ss

	// Latent media errors: the transfer is attempted (it occupies the
	// pipe and pays the latency) but completes with ErrReadMedium.
	rerr := d.readFaultLocked(sector, nSectors)

	now := d.clk.Now()
	occ := d.slowLocked(d.cfg.ReadOpOverhead + d.xferTime(int(nSectors)*d.cfg.SectorSize, d.cfg.ReadBandwidth))
	markPipe(sp, d.readBusy, now)
	media := reservePipe(&d.readBusy, now, occ)
	sp.MarkAt(obs.PhaseMedia, media)
	done := media + d.cfg.ReadLatency
	return pendingIO{at: done, err: rerr, fuaZ: -1}, src, nil
}

// Flush persists the device's volatile write cache: every write submitted
// before the flush is durable once the returned future completes.
func (d *Device) Flush() *vclock.Future {
	return d.FlushSpan(nil, nil)
}

// FlushSpan is Flush with a tracing span, completing fut (nil: a new
// future).
func (d *Device) FlushSpan(sp *obs.Span, fut *vclock.Future) *vclock.Future {
	d.mu.Lock()
	pio, err := d.flushApplyLocked(sp)
	var hf func()
	if err == nil {
		fut = d.scheduleLocked(sp, fut, pio)
		hf = d.hookLocked("zns.cmd.flush", -1, d.flushCount)
	}
	d.mu.Unlock()
	if err != nil {
		return d.failSpan(sp, fut, err)
	}
	fire(hf)
	return fut
}

// flushApplyLocked is the submit half of Flush: it snapshots the write
// pointer of every zone holding unflushed data and charges the write pipe;
// the snapshot persists at completion. Caller holds d.mu.
func (d *Device) flushApplyLocked(sp *obs.Span) (pendingIO, error) {
	if d.failed {
		return pendingIO{}, ErrDeviceFailed
	}
	snap := d.snapshotWPsLocked()
	now := d.clk.Now()
	markPipe(sp, d.writeBusy, now)
	done := reservePipe(&d.writeBusy, now, d.cfg.FlushLatency)
	sp.MarkAt(obs.PhaseMedia, done)
	d.flushCount++
	d.jrn.Record(obs.EvDevFlush, d.jslot, -1, d.flushCount, 0, 0, 0)
	return pendingIO{at: done, snap: snap, fuaZ: -1}, nil
}

// zoneWP is one zone's write pointer as captured by a flush snapshot.
type zoneWP struct {
	z  int
	wp int64
}

// snapshotWPsLocked captures the write pointer of every zone that holds
// unflushed extents; a clean zone has nothing for the flush to persist, so
// a flush of a clean device snapshots (and allocates) nothing. Caller
// holds d.mu.
func (d *Device) snapshotWPsLocked() []zoneWP {
	n := 0
	for i := range d.zones {
		if len(d.zones[i].unflushed) > 0 {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	snap := make([]zoneWP, 0, n)
	for i := range d.zones {
		if len(d.zones[i].unflushed) > 0 {
			snap = append(snap, zoneWP{z: i, wp: d.zones[i].wp})
		}
	}
	return snap
}

// persistSnapshotLocked marks each zone persistent up to the snapshot
// taken at flush submit. Caller holds d.mu.
func (d *Device) persistSnapshotLocked(snap []zoneWP) {
	for _, s := range snap {
		d.persistZoneLocked(s.z, s.wp)
	}
}

// persistZoneLocked advances zone z's persisted prefix to upTo (a zone-
// relative sector). Caller holds d.mu.
func (d *Device) persistZoneLocked(z int, upTo int64) {
	zo := &d.zones[z]
	if upTo <= zo.pwp {
		return
	}
	if upTo > zo.wp {
		upTo = zo.wp
	}
	zo.pwp = upTo
	keep := zo.unflushed[:0]
	for _, e := range zo.unflushed {
		if e.end <= upTo {
			continue
		}
		if e.start < upTo {
			e.start = upTo
		}
		keep = append(keep, e)
	}
	zo.unflushed = keep
}

// ResetZone erases zone z, returning it to the empty state. The reset is
// durable at submit (power loss between the resets of different array
// devices — the case RAIZN must handle — is still fully expressible by
// resetting a subset of devices before PowerLoss).
func (d *Device) ResetZone(z int) *vclock.Future {
	return d.ResetZoneSpan(nil, nil, z)
}

// ResetZoneSpan is ResetZone with a tracing span, completing fut (nil: a
// new future).
func (d *Device) ResetZoneSpan(sp *obs.Span, fut *vclock.Future, z int) *vclock.Future {
	d.mu.Lock()
	pio, hookArg, err := d.resetApplyLocked(sp, z)
	var hf func()
	if err == nil {
		fut = d.scheduleLocked(sp, fut, pio)
		hf = d.hookLocked("zns.zone.reset", z, hookArg)
	}
	d.mu.Unlock()
	if err != nil {
		return d.failSpan(sp, fut, err)
	}
	fire(hf)
	return fut
}

// resetApplyLocked is the submit half of ResetZone: the erase is applied
// at submit (durable immediately) and the reset completes ResetLatency
// later without occupying the write pipe (Config.ResetLatency).
// Returns the zone's prior write pointer for the crash-point hook.
// Caller holds d.mu.
func (d *Device) resetApplyLocked(sp *obs.Span, z int) (pendingIO, int64, error) {
	if d.failed {
		return pendingIO{}, 0, ErrDeviceFailed
	}
	if z < 0 || z >= d.cfg.NumZones {
		return pendingIO{}, 0, ErrOutOfRange
	}
	zo := &d.zones[z]
	if zo.state == ZoneReadOnly || zo.state == ZoneOffline {
		return pendingIO{}, 0, ErrZoneUnavailable
	}
	d.drainCopiesLocked(z) // the buffer goes to the free list, for any zone's next write
	switch zo.state {
	case ZoneOpen:
		d.nOpen--
		d.nActive--
	case ZoneClosed:
		d.nActive--
	}
	wpBefore := zo.wp
	zo.state = ZoneEmpty
	zo.wp = 0
	zo.pwp = 0
	zo.finished = false
	zo.unflushed = zo.unflushed[:0] // keeps its capacity for the zone's next writes
	d.releaseBufLocked(zo)
	// Unprogrammed (in-ZRWA) bytes are discarded without ever reaching
	// flash; the cumulative program counter never rolls back.
	zo.prog = 0
	zo.zrwa = false
	d.dropFaultsLocked(z)
	d.resetCount++
	d.jrn.Record(obs.EvZoneReset, d.jslot, z,
		wpBefore, d.resetCount, int64(d.nOpen), int64(d.nActive))

	now := d.clk.Now()
	done := now + d.cfg.ResetLatency
	sp.MarkAt(obs.PhaseQueue, now)
	sp.MarkAt(obs.PhaseMedia, done)
	return pendingIO{at: done, fuaZ: -1}, wpBefore, nil
}

// FinishZone transitions zone z to full without writing the remaining
// capacity. Unwritten sectors subsequently read as zeroes. Finishing also
// persists the zone's contents.
func (d *Device) FinishZone(z int) *vclock.Future {
	return d.FinishZoneSpan(nil, nil, z)
}

// FinishZoneSpan is FinishZone with a tracing span, completing fut (nil: a
// new future).
func (d *Device) FinishZoneSpan(sp *obs.Span, fut *vclock.Future, z int) *vclock.Future {
	d.mu.Lock()
	pio, hookArg, err := d.finishApplyLocked(sp, z)
	var hf func()
	if err == nil {
		fut = d.scheduleLocked(sp, fut, pio)
		hf = d.hookLocked("zns.zone.finish", z, hookArg)
	}
	d.mu.Unlock()
	if err != nil {
		return d.failSpan(sp, fut, err)
	}
	fire(hf)
	return fut
}

// finishApplyLocked is the submit half of FinishZone. Caller holds d.mu.
func (d *Device) finishApplyLocked(sp *obs.Span, z int) (pendingIO, int64, error) {
	if d.failed {
		return pendingIO{}, 0, ErrDeviceFailed
	}
	if z < 0 || z >= d.cfg.NumZones {
		return pendingIO{}, 0, ErrOutOfRange
	}
	zo := &d.zones[z]
	if zo.state == ZoneReadOnly || zo.state == ZoneOffline {
		return pendingIO{}, 0, ErrZoneUnavailable
	}
	switch zo.state {
	case ZoneOpen:
		d.nOpen--
		d.nActive--
	case ZoneClosed:
		d.nActive--
	}
	wpBefore := zo.wp
	zo.state = ZoneFull
	zo.finished = true
	d.programLocked(z) // finishing commits any in-ZRWA tail to flash
	d.persistZoneLocked(z, zo.wp)
	d.jrn.Record(obs.EvZoneFinish, d.jslot, z,
		wpBefore, 0, int64(d.nOpen), int64(d.nActive))

	now := d.clk.Now()
	markPipe(sp, d.writeBusy, now)
	done := reservePipe(&d.writeBusy, now, d.cfg.FinishLatency)
	sp.MarkAt(obs.PhaseMedia, done)
	return pendingIO{at: done, fuaZ: -1}, wpBefore, nil
}

// zoneBufLocked returns zone zo's backing buffer, giving the zone one on
// its first write since reset: a buffer a reset returned to the device if
// there is one, else a new one. A recycled buffer is NOT zeroed and still
// holds its previous zone's payload; that is sound because no path hands
// out a byte at or above the write pointer (fill zero-fills,
// CorruptSector and bit rot stay below it) and every write lands exactly
// at the write pointer or, through the ZRWA, below it.
//
// A zone written for the first time in the device's life does not drain the
// list: when it takes the last listed buffer a new one takes that one's
// place. Such a zone adds one to what the device can need at once, and the
// buffer it would otherwise walk off with is as a rule the one a log zone
// that is reset and rewritten in turn (raizn's metadata zones) has just
// returned and asks for again at its next roll-over. That roll-over would
// then allocate, at whatever moment the log happens to fill, and the pool
// would keep growing until every log had once rolled while every other
// zone was open. Made here, the allocation falls where the demand grows,
// at a zone's first write, and a run that rewrites the zones of its first
// pass has its buffers by the end of that pass. Buffers never outnumber
// the zones ever written, and a workload that walks over fresh zones while
// resetting old ones still runs on two. Caller holds d.mu.
func (d *Device) zoneBufLocked(zo *zone) []byte {
	if zo.data == nil {
		size := d.cfg.ZoneCap * int64(d.cfg.SectorSize)
		switch n := len(d.freeBufs); {
		case n == 0:
			zo.data = make([]byte, size)
		case n == 1 && !zo.written:
			zo.data, d.freeBufs[0] = d.freeBufs[0], make([]byte, size)
		default:
			zo.data, d.freeBufs[n-1] = d.freeBufs[n-1], nil
			d.freeBufs = d.freeBufs[:n-1]
		}
		zo.written = true
	}
	return zo.data
}

// releaseBufLocked detaches a reset zone's backing buffer and keeps it for
// the next first write. Buffers never outnumber the zones ever written
// (zoneBufLocked), so the list never exceeds NumZones. Caller holds d.mu.
func (d *Device) releaseBufLocked(zo *zone) {
	if zo.data != nil {
		d.freeBufs = append(d.freeBufs, zo.data)
	}
	zo.data = nil
}
