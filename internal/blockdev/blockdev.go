// Package blockdev simulates a conventional (block-interface) SSD with a
// page-mapped flash translation layer: erase blocks, overprovisioned
// capacity, and greedy garbage collection that consumes device bandwidth.
//
// This is the substrate under the mdraid baseline. Its purpose in the
// RAIZN reproduction is to make on-device garbage collection *emerge* from
// the flash model — when the host overwrites data after the free block
// pool is exhausted, the FTL must relocate valid pages, and host
// throughput collapses exactly as in Figure 10 of the paper.
package blockdev

import (
	"errors"
	"math/rand"
	"sync"
	"time"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// Flag carries per-IO cache-control semantics (REQ_FUA / REQ_PREFLUSH).
type Flag uint8

const (
	// FUA persists the written data before completion.
	FUA Flag = 1 << iota
	// Preflush flushes the volatile cache before the write executes.
	Preflush
)

// Errors returned by device operations.
var (
	ErrDeviceFailed = errors.New("blockdev: device failed")
	ErrOutOfRange   = errors.New("blockdev: address out of range")
	ErrUnaligned    = errors.New("blockdev: IO not sector aligned")
	ErrPowerLoss    = errors.New("blockdev: IO lost to power failure")
	// ErrReadMedium is an unrecoverable (latent) media error on a read:
	// the sector is unreadable but the device is otherwise healthy.
	ErrReadMedium = errors.New("blockdev: unrecovered read error (latent sector)")
	// ErrNoData rejects payload-dependent fault injection on a device
	// configured with DiscardData.
	ErrNoData = errors.New("blockdev: device discards payload data")
)

// Config describes a simulated conventional SSD. A flash page holds one
// logical sector (4 KiB), the granularity at which the FTL maps.
type Config struct {
	SectorSize int   // bytes per sector / flash page
	NumSectors int64 // advertised logical capacity, in sectors

	PagesPerBlock int // flash pages per erase block
	// Overprovision is the fraction of extra physical capacity beyond
	// the logical capacity (0.07 = 7%, typical for consumer drives; the
	// paper's enterprise drives behave like a GC'd drive once spare
	// blocks are exhausted either way).
	Overprovision float64

	// GCLowWater triggers garbage collection when the free block count
	// drops to it; GCHighWater is the target to collect back up to.
	GCLowWater  int
	GCHighWater int

	WriteBandwidth  float64       // bytes/second
	ReadBandwidth   float64       // bytes/second
	WriteOpOverhead time.Duration // pipe occupancy per write op
	ReadOpOverhead  time.Duration // pipe occupancy per read op
	WriteLatency    time.Duration // post-pipe completion delay
	ReadLatency     time.Duration // post-pipe completion delay
	FlushLatency    time.Duration
	EraseLatency    time.Duration // per erase-block erase

	DiscardData bool // drop payloads; reads return zeroes
}

// DefaultConfig returns a scaled-down model of the conventional SSDs in
// the paper's testbed: same hardware platform as the ZNS drives but with
// an FTL, ~2% higher write and ~4% higher read bandwidth (§6.1), and 7%
// overprovisioning. The default logical capacity matches the default ZNS
// device's writable capacity (64 zones x 4 MiB).
func DefaultConfig() Config {
	return Config{
		SectorSize:      4096,
		NumSectors:      64 * 1024, // 256 MiB
		PagesPerBlock:   256,       // 1 MiB erase blocks
		Overprovision:   0.11,      // spare area; exhausted spare triggers GC
		GCLowWater:      2,
		GCHighWater:     4,
		WriteBandwidth:  1073 * (1 << 20),
		ReadBandwidth:   3401 * (1 << 20),
		WriteOpOverhead: 2 * time.Microsecond,
		ReadOpOverhead:  1 * time.Microsecond,
		WriteLatency:    10 * time.Microsecond,
		ReadLatency:     60 * time.Microsecond,
		FlushLatency:    300 * time.Microsecond,
		EraseLatency:    3 * time.Millisecond,
	}
}

func (c *Config) validate() error {
	switch {
	case c.SectorSize <= 0 || c.NumSectors <= 0:
		return errors.New("blockdev: capacity must be positive")
	case c.PagesPerBlock <= 0:
		return errors.New("blockdev: PagesPerBlock must be positive")
	case c.NumSectors < 8*int64(c.PagesPerBlock):
		// Below ~8 erase blocks of logical space, the pages stranded in
		// the open host/GC blocks can exceed the spare area and wedge
		// the FTL; real drives have the same floor, just far away.
		return errors.New("blockdev: logical capacity must be at least 8 erase blocks")
	case c.Overprovision < 0:
		return errors.New("blockdev: negative overprovision")
	case c.WriteBandwidth <= 0 || c.ReadBandwidth <= 0:
		return errors.New("blockdev: bandwidths must be positive")
	}
	if c.GCLowWater <= 0 {
		c.GCLowWater = 2
	}
	if c.GCHighWater <= c.GCLowWater {
		c.GCHighWater = c.GCLowWater + 2
	}
	return nil
}

const (
	unmapped = int64(-1)
)

type blockState uint8

const (
	blockFree blockState = iota
	blockOpen            // accepting programs
	blockFull
)

type eraseBlock struct {
	state    blockState
	nextPage int // next programmable page within the block
	valid    int // count of valid pages
}

// Device is a simulated conventional SSD. All exported methods are safe
// for concurrent use by simulated goroutines.
type Device struct {
	cfg       Config
	clk       *vclock.Clock
	numBlocks int

	mu     sync.Mutex
	l2p    []int64 // logical page -> physical page (or unmapped)
	p2l    []int64 // physical page -> logical page (or unmapped/invalid)
	blocks []eraseBlock
	free   []int // free block indices (LIFO)

	hostActive int // block accepting host writes, -1 if none
	gcActive   int // block accepting GC relocations, -1 if none

	data []byte // physical page payloads (nil when DiscardData)

	failed bool
	epoch  uint64

	writeBusy time.Duration
	readBusy  time.Duration

	slowFactor float64 // injected service-time multiplier; <=1 means none

	unflushed map[int64]struct{} // logical pages written since last flush

	// Fault injection (faults.go).
	faultRNG   *rand.Rand
	latentErrs map[int64]bool // logical sectors with latent read errors

	// Lifetime counters.
	hostWriteBytes int64
	hostReadBytes  int64
	gcCopiedPages  int64
	gcEraseCount   int64
	flushCount     int64

	// Event journal (AttachJournal); block allocations and GC episodes
	// record into it under jslot. Nil until attached; Record is
	// nil-safe and free when disabled.
	jrn   *obs.Journal
	jslot int
}

// NewDevice creates a device with an empty (fully trimmed) FTL. It panics
// on invalid configuration.
func NewDevice(clk *vclock.Clock, cfg Config) *Device {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	logicalPages := cfg.NumSectors
	physPages := int64(float64(logicalPages) * (1 + cfg.Overprovision))
	numBlocks := int((physPages + int64(cfg.PagesPerBlock) - 1) / int64(cfg.PagesPerBlock))
	// The spare area must cover the GC high-water mark plus the two open
	// blocks (host + GC relocation), or a fully-utilized device can
	// strand its free pages in open blocks and wedge; small configs hit
	// this long before the percentage-based overprovision does.
	logicalBlocks := int((logicalPages + int64(cfg.PagesPerBlock) - 1) / int64(cfg.PagesPerBlock))
	if min := logicalBlocks + cfg.GCHighWater + 2; numBlocks < min {
		numBlocks = min
	}
	d := &Device{
		cfg:        cfg,
		clk:        clk,
		numBlocks:  numBlocks,
		l2p:        make([]int64, logicalPages),
		p2l:        make([]int64, int64(numBlocks)*int64(cfg.PagesPerBlock)),
		blocks:     make([]eraseBlock, numBlocks),
		hostActive: -1,
		gcActive:   -1,
		unflushed:  make(map[int64]struct{}),
	}
	for i := range d.l2p {
		d.l2p[i] = unmapped
	}
	for i := range d.p2l {
		d.p2l[i] = unmapped
	}
	for i := numBlocks - 1; i >= 0; i-- {
		d.free = append(d.free, i)
	}
	if !cfg.DiscardData {
		d.data = make([]byte, int64(numBlocks)*int64(cfg.PagesPerBlock)*int64(cfg.SectorSize))
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// NumSectors returns the logical capacity in sectors.
func (d *Device) NumSectors() int64 { return d.cfg.NumSectors }

// Counters returns lifetime counters: host bytes written/read, pages
// copied by GC, and erase operations.
func (d *Device) Counters() (hostWrite, hostRead, gcCopied, erases int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostWriteBytes, d.hostReadBytes, d.gcCopiedPages, d.gcEraseCount
}

// WriteAmplification returns total flash programs / host programs so far,
// or 1 if the host has not written anything.
func (d *Device) WriteAmplification() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	hostPages := d.hostWriteBytes / int64(d.cfg.SectorSize)
	if hostPages == 0 {
		return 1
	}
	return float64(hostPages+d.gcCopiedPages) / float64(hostPages)
}

// FreeBlocks returns the current number of free erase blocks.
func (d *Device) FreeBlocks() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.free)
}

// Fail marks the device dead; all subsequent IO errors out.
func (d *Device) Fail() {
	d.mu.Lock()
	d.failed = true
	d.mu.Unlock()
}

// Failed reports whether the device has been failed.
func (d *Device) Failed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.failed
}

func (d *Device) fail(err error) *vclock.Future { return d.clk.Completed(err) }

// failSpan ends the span with an immediate submission error and returns
// a pre-completed future carrying it.
func (d *Device) failSpan(sp *obs.Span, err error) *vclock.Future {
	sp.End(err)
	return d.fail(err)
}

// SetSlowdown injects a service-time multiplier on every subsequent
// command (see zns.Device.SetSlowdown). factor <= 1 restores normal
// speed.
func (d *Device) SetSlowdown(factor float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.slowFactor = factor
}

func (d *Device) slowLocked(occ time.Duration) time.Duration {
	if d.slowFactor > 1 {
		occ = time.Duration(float64(occ) * d.slowFactor)
	}
	return occ
}

// markPipe records when a command will reach the head of a pipe whose
// busy-until is busy (see the zns twin).
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

// RegisterMetrics publishes the device's lifetime counters into the
// registry as pull-style gauges under the given prefix (conventionally
// "blockdev_dev<i>"). The gauge funcs take d.mu at snapshot time.
func (d *Device) RegisterMetrics(r *obs.Registry, prefix string) {
	lockedInt := func(f func() int64) func() int64 {
		return func() int64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return f()
		}
	}
	r.GaugeFunc(prefix+"_host_write_bytes", lockedInt(func() int64 { return d.hostWriteBytes }))
	r.GaugeFunc(prefix+"_host_read_bytes", lockedInt(func() int64 { return d.hostReadBytes }))
	r.GaugeFunc(prefix+"_gc_copied_pages_total", lockedInt(func() int64 { return d.gcCopiedPages }))
	r.GaugeFunc(prefix+"_gc_erases_total", lockedInt(func() int64 { return d.gcEraseCount }))
	r.GaugeFunc(prefix+"_flushes_total", lockedInt(func() int64 { return d.flushCount }))
	r.GaugeFunc(prefix+"_gc_free_blocks", lockedInt(func() int64 { return int64(len(d.free)) }))
	r.GaugeFunc(prefix+"_gc_wa_milli", lockedInt(func() int64 {
		hostPages := d.hostWriteBytes / int64(d.cfg.SectorSize)
		if hostPages == 0 {
			return 1000
		}
		return (hostPages + d.gcCopiedPages) * 1000 / hostPages
	}))
}

// AttachJournal points the device at a shared event journal: block
// allocations and GC episodes record under source slot. Passing nil
// detaches.
func (d *Device) AttachJournal(j *obs.Journal, slot int) {
	d.mu.Lock()
	d.jrn, d.jslot = j, slot
	d.mu.Unlock()
}

func (d *Device) xferTime(n int, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * float64(time.Second))
}

func reservePipe(busy *time.Duration, now, occupancy time.Duration) time.Duration {
	start := now
	if *busy > start {
		start = *busy
	}
	*busy = start + occupancy
	return *busy
}

func (d *Device) schedule(sp *obs.Span, fut *vclock.Future, at time.Duration, epoch uint64, err error, effect func()) {
	now := d.clk.Now()
	d.clk.AfterFunc(at-now, func() {
		d.mu.Lock()
		stale := d.epoch != epoch
		if !stale && effect != nil {
			effect()
		}
		d.mu.Unlock()
		if stale {
			sp.EndAt(at, ErrPowerLoss)
			fut.Complete(ErrPowerLoss)
			return
		}
		sp.EndAt(at, err)
		fut.Complete(err)
	})
}

// allocBlockLocked takes a block from the free list and opens it.
func (d *Device) allocBlockLocked() int {
	if len(d.free) == 0 {
		// Cannot happen: GC keeps at least one block free, and physical
		// capacity exceeds logical capacity.
		panic("blockdev: out of free blocks")
	}
	b := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	d.blocks[b] = eraseBlock{state: blockOpen}
	d.jrn.Record(obs.EvBlockAlloc, d.jslot, -1, int64(len(d.free)), 0, 0, 0)
	return b
}

// programLocked writes one page for logical page lp into the active block
// chain identified by active (either &d.hostActive or &d.gcActive),
// returning the physical page programmed.
func (d *Device) programLocked(lp int64, active *int) int64 {
	if *active == -1 || d.blocks[*active].state != blockOpen {
		*active = d.allocBlockLocked()
	}
	b := *active
	blk := &d.blocks[b]
	pp := int64(b)*int64(d.cfg.PagesPerBlock) + int64(blk.nextPage)
	blk.nextPage++
	blk.valid++
	if blk.nextPage == d.cfg.PagesPerBlock {
		blk.state = blockFull
		*active = -1
	}
	// Invalidate the previous mapping.
	if old := d.l2p[lp]; old != unmapped {
		d.blocks[old/int64(d.cfg.PagesPerBlock)].valid--
		d.p2l[old] = unmapped
	}
	d.l2p[lp] = pp
	d.p2l[pp] = lp
	return pp
}

// gcLocked performs greedy garbage collection until the free pool reaches
// the high-water mark, returning the virtual-time cost of the work (page
// reads + programs + erases), which the caller charges to the write pipe.
func (d *Device) gcLocked() time.Duration {
	var cost time.Duration
	pageBytes := d.cfg.SectorSize
	for len(d.free) < d.cfg.GCHighWater {
		victim := d.pickVictimLocked()
		if victim == -1 {
			break
		}
		blk := &d.blocks[victim]
		base := int64(victim) * int64(d.cfg.PagesPerBlock)
		copied := int64(0)
		for p := 0; p < d.cfg.PagesPerBlock && blk.valid > 0; p++ {
			pp := base + int64(p)
			lp := d.p2l[pp]
			if lp == unmapped {
				continue
			}
			np := d.programLocked(lp, &d.gcActive)
			if d.data != nil {
				copy(d.pageData(np), d.pageData(pp))
			}
			d.p2l[pp] = unmapped
			// programLocked decremented the victim's valid count via
			// the old mapping.
			d.gcCopiedPages++
			copied++
			cost += d.xferTime(pageBytes, d.cfg.ReadBandwidth) + d.xferTime(pageBytes, d.cfg.WriteBandwidth)
		}
		blk.state = blockFree
		blk.nextPage = 0
		blk.valid = 0
		d.free = append(d.free, victim)
		d.gcEraseCount++
		cost += d.cfg.EraseLatency
		if d.jrn.Enabled() {
			hostPages := d.hostWriteBytes / int64(d.cfg.SectorSize)
			d.jrn.Record(obs.EvGC, d.jslot, -1,
				int64(victim), copied, hostPages, hostPages+d.gcCopiedPages)
		}
	}
	return cost
}

// pickVictimLocked returns the full block with the fewest valid pages, or
// -1 if no full block exists.
func (d *Device) pickVictimLocked() int {
	best, bestValid := -1, d.cfg.PagesPerBlock
	for i := range d.blocks {
		if d.blocks[i].state != blockFull {
			continue
		}
		// A fully valid block is never a victim: erasing it frees no
		// net space (the copies consume exactly what the erase yields).
		if d.blocks[i].valid < bestValid {
			best, bestValid = i, d.blocks[i].valid
		}
	}
	return best
}

func (d *Device) pageData(pp int64) []byte {
	off := pp * int64(d.cfg.SectorSize)
	return d.data[off : off+int64(d.cfg.SectorSize)]
}

// Write submits a write of data at the absolute sector; overwrites are
// permitted anywhere in the logical address space. The returned future
// completes when the transfer (including any garbage collection it
// triggered) finishes. The payload is copied into device memory before the
// call returns (Writev likewise), so data is the caller's again at once.
func (d *Device) Write(sector int64, data []byte, flags Flag) *vclock.Future {
	return d.WriteSpan(nil, sector, data, flags)
}

// WriteSpan is Write with a tracing span: the device marks the span's
// queue and media phases and ends it when the command completes.
func (d *Device) WriteSpan(sp *obs.Span, sector int64, data []byte, flags Flag) *vclock.Future {
	if len(data) == 0 || len(data)%d.cfg.SectorSize != 0 {
		return d.failSpan(sp, ErrUnaligned)
	}
	nPages := int64(len(data) / d.cfg.SectorSize)
	if sector < 0 || sector+nPages > d.cfg.NumSectors {
		return d.failSpan(sp, ErrOutOfRange)
	}

	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return d.failSpan(sp, ErrDeviceFailed)
	}
	var gcCost time.Duration
	for i := int64(0); i < nPages; i++ {
		lp := sector + i
		if len(d.free) <= d.cfg.GCLowWater {
			gcCost += d.gcLocked()
		}
		pp := d.programLocked(lp, &d.hostActive)
		if d.data != nil {
			copy(d.pageData(pp), data[i*int64(d.cfg.SectorSize):(i+1)*int64(d.cfg.SectorSize)])
		}
		// Rewriting a latent sector repairs it (the FTL programs a fresh
		// page; the grown defect is remapped away).
		if d.latentErrs[lp] {
			delete(d.latentErrs, lp)
		}
		d.unflushed[lp] = struct{}{}
	}
	d.hostWriteBytes += nPages * int64(d.cfg.SectorSize)

	now := d.clk.Now()
	occ := d.slowLocked(gcCost + d.cfg.WriteOpOverhead + d.xferTime(len(data), d.cfg.WriteBandwidth))
	if flags&Preflush != 0 {
		occ += d.cfg.FlushLatency
	}
	sp.SetSegs(1)
	markPipe(sp, d.writeBusy, now)
	media := reservePipe(&d.writeBusy, now, occ)
	sp.MarkAt(obs.PhaseMedia, media)
	done := media + d.cfg.WriteLatency
	epoch := d.epoch
	fua := flags&(FUA|Preflush) != 0
	d.mu.Unlock()

	fut := d.clk.NewFuture()
	d.schedule(sp, fut, done, epoch, nil, func() {
		if fua {
			// Persisting precisely the affected pages is enough for the
			// tests built on this device; a full-cache flush model is
			// not needed at the mdraid layer.
			for i := int64(0); i < nPages; i++ {
				delete(d.unflushed, sector+i)
			}
		}
	})
	return fut
}

// Writev submits one write command whose payload is gathered from segs
// (a scatter list). Like zns.Device.Writev it pays WriteOpOverhead once
// and occupies the write pipe for a single transfer of the combined
// length; semantics match Write of the concatenated payload.
func (d *Device) Writev(sector int64, segs [][]byte, flags Flag) *vclock.Future {
	return d.WritevSpan(nil, sector, segs, flags)
}

// WritevSpan is Writev with a tracing span; the span additionally
// records the scatter-list segment count.
func (d *Device) WritevSpan(sp *obs.Span, sector int64, segs [][]byte, flags Flag) *vclock.Future {
	if len(segs) == 0 {
		return d.failSpan(sp, ErrUnaligned)
	}
	if len(segs) == 1 {
		return d.WriteSpan(sp, sector, segs[0], flags)
	}
	var nPages int64
	for _, s := range segs {
		if len(s) == 0 || len(s)%d.cfg.SectorSize != 0 {
			return d.failSpan(sp, ErrUnaligned)
		}
		nPages += int64(len(s) / d.cfg.SectorSize)
	}
	if sector < 0 || sector+nPages > d.cfg.NumSectors {
		return d.failSpan(sp, ErrOutOfRange)
	}

	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return d.failSpan(sp, ErrDeviceFailed)
	}
	ss := int64(d.cfg.SectorSize)
	var gcCost time.Duration
	lp := sector
	for _, seg := range segs {
		for i := int64(0); i < int64(len(seg))/ss; i, lp = i+1, lp+1 {
			if len(d.free) <= d.cfg.GCLowWater {
				gcCost += d.gcLocked()
			}
			pp := d.programLocked(lp, &d.hostActive)
			if d.data != nil {
				copy(d.pageData(pp), seg[i*ss:(i+1)*ss])
			}
			if d.latentErrs[lp] {
				delete(d.latentErrs, lp)
			}
			d.unflushed[lp] = struct{}{}
		}
	}
	d.hostWriteBytes += nPages * ss

	now := d.clk.Now()
	occ := d.slowLocked(gcCost + d.cfg.WriteOpOverhead + d.xferTime(int(nPages*ss), d.cfg.WriteBandwidth))
	if flags&Preflush != 0 {
		occ += d.cfg.FlushLatency
	}
	sp.SetSegs(len(segs))
	markPipe(sp, d.writeBusy, now)
	media := reservePipe(&d.writeBusy, now, occ)
	sp.MarkAt(obs.PhaseMedia, media)
	done := media + d.cfg.WriteLatency
	epoch := d.epoch
	fua := flags&(FUA|Preflush) != 0
	d.mu.Unlock()

	fut := d.clk.NewFuture()
	d.schedule(sp, fut, done, epoch, nil, func() {
		if fua {
			for i := int64(0); i < nPages; i++ {
				delete(d.unflushed, sector+i)
			}
		}
	})
	return fut
}

// Read fills buf starting at the absolute sector. Unwritten (trimmed)
// sectors read as zeroes.
func (d *Device) Read(sector int64, buf []byte) *vclock.Future {
	return d.ReadSpan(nil, sector, buf)
}

// ReadSpan is Read with a tracing span.
func (d *Device) ReadSpan(sp *obs.Span, sector int64, buf []byte) *vclock.Future {
	if len(buf) == 0 || len(buf)%d.cfg.SectorSize != 0 {
		return d.failSpan(sp, ErrUnaligned)
	}
	nPages := int64(len(buf) / d.cfg.SectorSize)
	if sector < 0 || sector+nPages > d.cfg.NumSectors {
		return d.failSpan(sp, ErrOutOfRange)
	}

	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return d.failSpan(sp, ErrDeviceFailed)
	}
	ss := int64(d.cfg.SectorSize)
	for i := int64(0); i < nPages; i++ {
		dst := buf[i*ss : (i+1)*ss]
		pp := d.l2p[sector+i]
		if pp == unmapped || d.data == nil {
			for j := range dst {
				dst[j] = 0
			}
			continue
		}
		copy(dst, d.pageData(pp))
	}
	d.hostReadBytes += nPages * ss

	rerr := d.readFaultLocked(sector, nPages)

	now := d.clk.Now()
	occ := d.slowLocked(d.cfg.ReadOpOverhead + d.xferTime(len(buf), d.cfg.ReadBandwidth))
	markPipe(sp, d.readBusy, now)
	media := reservePipe(&d.readBusy, now, occ)
	sp.MarkAt(obs.PhaseMedia, media)
	done := media + d.cfg.ReadLatency
	epoch := d.epoch
	d.mu.Unlock()

	fut := d.clk.NewFuture()
	d.schedule(sp, fut, done, epoch, rerr, nil)
	return fut
}

// Flush persists the volatile write cache.
func (d *Device) Flush() *vclock.Future {
	return d.FlushSpan(nil)
}

// FlushSpan is Flush with a tracing span.
func (d *Device) FlushSpan(sp *obs.Span) *vclock.Future {
	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return d.failSpan(sp, ErrDeviceFailed)
	}
	snap := make([]int64, 0, len(d.unflushed))
	for lp := range d.unflushed {
		snap = append(snap, lp)
	}
	now := d.clk.Now()
	markPipe(sp, d.writeBusy, now)
	done := reservePipe(&d.writeBusy, now, d.cfg.FlushLatency)
	sp.MarkAt(obs.PhaseMedia, done)
	epoch := d.epoch
	d.flushCount++
	d.mu.Unlock()

	fut := d.clk.NewFuture()
	d.schedule(sp, fut, done, epoch, nil, func() {
		for _, lp := range snap {
			delete(d.unflushed, lp)
		}
	})
	return fut
}

// Trim deallocates the logical range, releasing the mapped flash pages.
func (d *Device) Trim(sector, nSectors int64) error {
	if sector < 0 || nSectors < 0 || sector+nSectors > d.cfg.NumSectors {
		return ErrOutOfRange
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return ErrDeviceFailed
	}
	for i := int64(0); i < nSectors; i++ {
		lp := sector + i
		if pp := d.l2p[lp]; pp != unmapped {
			d.blocks[pp/int64(d.cfg.PagesPerBlock)].valid--
			d.p2l[pp] = unmapped
			d.l2p[lp] = unmapped
		}
		delete(d.unflushed, lp)
	}
	return nil
}

// PowerLoss drops all unflushed data (pessimistically: no partial
// survival; the mdraid experiments in this reproduction do not exercise
// block-device torn writes) and voids in-flight IO.
func (d *Device) PowerLoss() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for lp := range d.unflushed {
		if pp := d.l2p[lp]; pp != unmapped {
			d.blocks[pp/int64(d.cfg.PagesPerBlock)].valid--
			d.p2l[pp] = unmapped
			d.l2p[lp] = unmapped
		}
	}
	d.unflushed = make(map[int64]struct{})
	d.epoch++
	d.writeBusy = 0
	d.readBusy = 0
}
