// Package zns simulates an NVMe Zoned Namespace SSD.
//
// The simulator reproduces the ZNS semantics RAIZN depends on and nothing
// more — the zone state machine (empty, open, closed, full), sequential-
// write-only zones, write pointers, zone append, reset/finish, open/active
// zone limits, and a volatile write cache with flush/FUA prefix persistence
// in units of one sector — plus a bandwidth/latency performance model so
// IO completes in virtual time, and failure injection (device death, power
// loss with partial persistence, latent sector errors) for crash-
// consistency testing. A zone opens implicitly on its first write and
// leaves the open state by filling, finish or reset; only a power cut
// closes it.
//
// All IO methods are asynchronous: they validate and apply the state
// transition synchronously (the device serializes command submission, as
// the NVMe queue pair does) and return a vclock.Future that completes when
// the simulated transfer finishes.
package zns

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// ZoneState is the state of a zone per the ZNS state machine (NVMe ZNS
// Command Set spec §2.1), restricted to the states RAIZN meets: zones
// open implicitly, and a power cut closes every open zone that keeps
// data. The spec's read-only and offline media-failure states are not
// modelled; a whole-device failure is (Fail).
type ZoneState int

const (
	ZoneEmpty ZoneState = iota
	ZoneOpen
	ZoneClosed
	ZoneFull
)

func (s ZoneState) String() string {
	switch s {
	case ZoneEmpty:
		return "empty"
	case ZoneOpen:
		return "open"
	case ZoneClosed:
		return "closed"
	case ZoneFull:
		return "full"
	default:
		return fmt.Sprintf("ZoneState(%d)", int(s))
	}
}

// Flag carries per-IO cache-control semantics, mirroring the kernel block
// layer's REQ_FUA / REQ_PREFLUSH. A device write takes FUA and ZRWA;
// Preflush is the array's flag (raizn), and a device write carrying it
// fails at submit with ErrPreflush.
type Flag uint8

const (
	// FUA forces the written data (and, per the ZNS sequential
	// guarantee, everything before it in the same zone) to media before
	// the write completes.
	FUA Flag = 1 << iota
	// Preflush makes an array write durable together with everything
	// written to the array before it (raizn's REQ_PREFLUSH). Devices
	// reject it.
	Preflush
	// ZRWA writes through the zone's random write area (ext.go): the
	// write may start anywhere in [wp-ZRWASectors, wp] and overwrite the
	// window in place. Its payload is copied at submit.
	ZRWA
)

// Errors returned by device operations (as future completions).
var (
	ErrNotSequential = errors.New("zns: write not at zone write pointer")
	ErrZoneBoundary  = errors.New("zns: IO crosses a zone boundary")
	ErrZoneFull      = errors.New("zns: zone is full")
	ErrTooManyOpen   = errors.New("zns: max open zones exceeded")
	ErrTooManyActive = errors.New("zns: max active zones exceeded")
	ErrDeviceFailed  = errors.New("zns: device failed")
	ErrReadBeyondWP  = errors.New("zns: read beyond write pointer")
	ErrPowerLoss     = errors.New("zns: IO lost to power failure")
	ErrOutOfRange    = errors.New("zns: address out of range")
	ErrUnaligned     = errors.New("zns: IO not sector aligned")
	ErrPreflush      = errors.New("zns: Preflush is an array flag, not a device write's")
	// ErrReadMedium is an unrecoverable (latent) media error on a read:
	// the sector is unreadable but the device is otherwise healthy,
	// unlike ErrDeviceFailed.
	ErrReadMedium = errors.New("zns: unrecovered read error (latent sector)")
	// ErrNoData rejects payload-dependent fault injection on a device
	// configured with DiscardData.
	ErrNoData = errors.New("zns: device discards payload data")
)

// Config describes a simulated ZNS device. Capacities are expressed in
// sectors; a sector is the logical block size (4 KiB by default, matching
// the paper's devices).
type Config struct {
	SectorSize int   // bytes per logical block
	NumZones   int   // zones in the namespace
	ZoneSize   int64 // address-space stride of a zone, in sectors (power of two on real devices)
	ZoneCap    int64 // writable sectors per zone (<= ZoneSize)

	MaxOpenZones   int // simultaneous open zones (14 on the paper's ZN540s)
	MaxActiveZones int // simultaneous open+closed zones (0 = same as MaxOpenZones)

	// Performance model. A read and a write pipe each serialize their
	// transfers at the configured bandwidth; every op additionally
	// occupies its pipe for the per-op overhead (this bounds IOPS) and
	// completes an extra fixed latency after leaving the pipe. A zone
	// reset completes ResetLatency after submit and holds neither pipe:
	// Doekemeijer et al. ("Performance Characterization of NVMe Flash
	// Devices with Zoned Namespaces", CLUSTER '23) measured on a ZN540
	// that resets barely disturb concurrent I/O. A finish stays on the
	// write pipe (it pads the zone, as ConfZNS++ models it).
	WriteBandwidth  float64       // bytes/second
	ReadBandwidth   float64       // bytes/second
	WriteOpOverhead time.Duration // pipe occupancy per write op
	ReadOpOverhead  time.Duration // pipe occupancy per read op
	WriteLatency    time.Duration // post-pipe completion delay
	ReadLatency     time.Duration // post-pipe completion delay
	ResetLatency    time.Duration // zone reset service time, beside the pipes
	FinishLatency   time.Duration // zone finish service time
	FlushLatency    time.Duration // cache flush service time

	// ZRWASectors enables a Zone Random Write Area of this many sectors
	// behind each zone's write pointer (0 = unsupported, as on the
	// paper's devices). See the ZRWA flag.
	ZRWASectors int64

	// DiscardData drops write payloads (reads return zeroes). Used by
	// large benchmarks where only timing and zone metadata matter.
	DiscardData bool
}

// DefaultConfig returns a scaled-down model of the paper's WD Ultrastar DC
// ZN540: 4 KiB sectors, 1052 MiB/s write and 3265 MiB/s read bandwidth, a
// 14-zone open limit, and (by default) 64 zones of 4 MiB capacity so whole
// experiments fit in memory.
func DefaultConfig() Config {
	return Config{
		SectorSize:      4096,
		NumZones:        64,
		ZoneSize:        1280, // 5 MiB stride
		ZoneCap:         1024, // 4 MiB writable, mirroring cap < size on the ZN540
		MaxOpenZones:    14,
		MaxActiveZones:  28,
		WriteBandwidth:  1052 * (1 << 20),
		ReadBandwidth:   3265 * (1 << 20),
		WriteOpOverhead: 2 * time.Microsecond,
		ReadOpOverhead:  1 * time.Microsecond,
		WriteLatency:    12 * time.Microsecond,
		ReadLatency:     65 * time.Microsecond,
		ResetLatency:    2 * time.Millisecond,
		FinishLatency:   1 * time.Millisecond,
		FlushLatency:    300 * time.Microsecond,
	}
}

func (c *Config) validate() error {
	switch {
	case c.SectorSize <= 0:
		return errors.New("zns: SectorSize must be positive")
	case c.NumZones <= 0:
		return errors.New("zns: NumZones must be positive")
	case c.ZoneSize <= 0 || c.ZoneCap <= 0 || c.ZoneCap > c.ZoneSize:
		return errors.New("zns: need 0 < ZoneCap <= ZoneSize")
	case c.MaxOpenZones <= 0:
		return errors.New("zns: MaxOpenZones must be positive")
	case c.WriteBandwidth <= 0 || c.ReadBandwidth <= 0:
		return errors.New("zns: bandwidths must be positive")
	}
	if c.MaxActiveZones == 0 {
		c.MaxActiveZones = c.MaxOpenZones
	}
	if c.MaxActiveZones < c.MaxOpenZones {
		return errors.New("zns: MaxActiveZones < MaxOpenZones")
	}
	return nil
}

// extent records one unflushed write for partial-persistence power loss.
type extent struct {
	start, end int64 // zone-relative sectors, [start, end)
}

type zone struct {
	state     ZoneState
	wp        int64    // zone-relative next writable sector
	pwp       int64    // zone-relative persisted prefix (pwp <= wp)
	finished  bool     // zone was made full by an explicit (durable) finish
	data      []byte   // backing buffer, ZoneCap sectors; only [0, wp) is content (zoneBufLocked)
	written   bool     // has taken a backing buffer at some time; resets do not clear it (zoneBufLocked)
	unflushed []extent // writes in (pwp, wp], in submit order
	wcopies   int      // writes whose payload copy into data is still listed in d.copying (readcopy.go)

	// Flash-program accounting (see programLocked). prog is the zone-
	// relative sector up to which data has been programmed to NAND; zrwa
	// marks a zone that has taken a ZRWA write since its last reset, whose
	// tail therefore lingers in the device's ZRWA buffer until it slides
	// out of the window. Pure accounting: durability is governed solely by
	// pwp/unflushed.
	prog int64
	zrwa bool

	reads int64 // read commands accepted in the zone (ZoneReads)
}

// Device is a simulated ZNS SSD. All exported methods are safe for
// concurrent use by simulated goroutines.
type Device struct {
	cfg Config
	clk *vclock.Clock

	mu      sync.Mutex
	zones   []zone
	nOpen   int
	nActive int
	failed  bool
	epoch   uint64 // bumped on power loss; stale completions are voided

	// freeBufs holds the backing buffers of reset zones for reuse by the
	// next first write (zoneBufLocked / releaseBufLocked in io.go).
	freeBufs [][]byte

	// cmds holds the completion records of finished commands for reuse by
	// the next (scheduleLocked / command.Notify in io.go).
	cmds []*command

	// copying holds the records of commands whose copy — a read's into
	// the host buffer, a write's into zone memory — may still be in flight
	// (readcopy.go); drainCopiesLocked finishes a zone's before an access
	// they must not be overtaken by.
	copying []*command

	writeBusy time.Duration // write pipe busy-until (virtual time)
	readBusy  time.Duration // read pipe busy-until

	slowFactor float64 // injected service-time multiplier (faults.go); <=1 means none

	// Fault injection (faults.go).
	faultRNG         *rand.Rand     // picks CorruptSector's bit, lazily built
	latentErrs       map[int64]bool // absolute sectors with latent read errors
	injectedReadErrs int64          // sectors marked latent
	injectedRot      int64          // sectors hit by bit-rot
	readMediumErrs   int64          // reads completed with ErrReadMedium

	// Lifetime counters, for write-amplification accounting in tests
	// and the experiment harness.
	hostWriteBytes int64
	hostReadBytes  int64
	writeCmds      int64 // write commands accepted (a Writev counts once)
	flushCount     int64
	resetCount     int64

	// flashProgramBytes counts bytes committed to NAND (programLocked): the
	// flash-write-amplification denominator's counterpart. Host bytes that
	// only ever lived in a zone's ZRWA before being overwritten or the zone
	// reset are never programmed and never counted. Cumulative; survives
	// zone resets and power cuts.
	flashProgramBytes int64

	// Event journal (AttachJournal); zone lifecycle transitions record
	// into it under jslot. Nil until attached; Record is nil-safe and
	// free when disabled, so the hot path never branches on it.
	jrn   *obs.Journal
	jslot int

	// Crash-point hook (AttachHook); fired once per accepted command and
	// zone operation, outside d.mu. Nil until attached.
	hook  obs.Hook
	hslot int
}

// NewDevice creates a device with every zone empty. It panics on invalid
// configuration (a construction-time programming error).
func NewDevice(clk *vclock.Clock, cfg Config) *Device {
	if err := cfg.validate(); err != nil {
		panic(err)
	}
	startCopier()
	return &Device{
		cfg:   cfg,
		clk:   clk,
		zones: make([]zone, cfg.NumZones),
	}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Clock returns the virtual clock the device schedules on.
func (d *Device) Clock() *vclock.Clock { return d.clk }

// NumSectors returns the size of the device address space in sectors
// (NumZones * ZoneSize; the tail of each zone beyond ZoneCap is a gap).
func (d *Device) NumSectors() int64 {
	return int64(d.cfg.NumZones) * d.cfg.ZoneSize
}

// ZoneOf returns the zone index containing the absolute sector.
func (d *Device) ZoneOf(sector int64) int {
	return int(sector / d.cfg.ZoneSize)
}

// ZoneStart returns the first absolute sector of zone z.
func (d *Device) ZoneStart(z int) int64 {
	return int64(z) * d.cfg.ZoneSize
}

// ZoneDesc is a report-zones style descriptor.
type ZoneDesc struct {
	Index int
	State ZoneState
	// WP is the absolute sector of the write pointer. A zone filled to
	// capacity reports ZoneStart+ZoneCap; a zone finished early reports
	// its fill, the sectors written before FinishZone.
	WP int64
	// PersistedWP is the absolute sector up to which data would survive
	// an immediate power loss. Real devices do not expose this; it is
	// simulator-only introspection used by tests.
	PersistedWP int64
}

// Zone returns the descriptor of zone z.
func (d *Device) Zone(z int) ZoneDesc {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.zoneDescLocked(z)
}

func (d *Device) zoneDescLocked(z int) ZoneDesc {
	zo := &d.zones[z]
	return ZoneDesc{
		Index:       z,
		State:       zo.state,
		WP:          d.ZoneStart(z) + zo.wp,
		PersistedWP: d.ZoneStart(z) + zo.pwp,
	}
}

// ReportZones returns descriptors for all zones, in index order.
func (d *Device) ReportZones() []ZoneDesc {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]ZoneDesc, len(d.zones))
	for i := range d.zones {
		out[i] = d.zoneDescLocked(i)
	}
	return out
}

// OpenZoneCount returns the number of zones currently in the open state.
func (d *Device) OpenZoneCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nOpen
}

// Counters returns lifetime host IO counters.
func (d *Device) Counters() (writeBytes, readBytes, flushes, resets int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostWriteBytes, d.hostReadBytes, d.flushCount, d.resetCount
}

// WriteCommands returns the number of write commands the device has
// accepted. A gathered Writev counts as one command regardless of how
// many segments it carries, so hosts can verify sub-IO coalescing.
func (d *Device) WriteCommands() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writeCmds
}

// ZoneReads returns the number of read commands the device has accepted in
// zone z. Real devices do not expose this; it is simulator-only
// introspection, so that a test can count how often a host reads a zone.
func (d *Device) ZoneReads(z int) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.zones[z].reads
}

// FlashProgramBytes returns the cumulative bytes programmed to NAND. For
// zones written only sequentially this equals the host bytes written to
// them; for zones written through the ZRWA, bytes are programmed lazily
// when they slide out of the window (or the zone fills/finishes), so
// in-window overwrites and resets of in-window data never reach flash.
func (d *Device) FlashProgramBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.flashProgramBytes
}

// programLocked advances zone z's programmed pointer after its write
// pointer moved and charges flashProgramBytes. A zone untouched by ZRWA
// programs everything up to wp immediately; a ZRWA-touched zone keeps the
// trailing ZRWASectors in the device buffer (implicit-commit model: data
// is programmed only when the window slides past it), except that a full
// or finished zone commits its whole contents. Caller holds d.mu.
func (d *Device) programLocked(z int) {
	zo := &d.zones[z]
	target := zo.wp
	if zo.zrwa && zo.state != ZoneFull && !zo.finished {
		target = zo.wp - d.cfg.ZRWASectors
	}
	if target > zo.prog {
		d.flashProgramBytes += (target - zo.prog) * int64(d.cfg.SectorSize)
		zo.prog = target
	}
}

// jStateLocked journals zone z's new lifecycle state together with the
// open/active occupancy after the transition. Caller holds d.mu.
func (d *Device) jStateLocked(z int) {
	zo := &d.zones[z]
	d.jrn.Record(obs.EvZoneState, d.jslot, z,
		int64(zo.state), zo.wp, int64(d.nOpen), int64(d.nActive))
}

// transitionToOpenLocked opens zone z for a write, enforcing the
// open/active limits.
func (d *Device) transitionToOpenLocked(z int) error {
	zo := &d.zones[z]
	switch zo.state {
	case ZoneOpen:
		return nil
	case ZoneEmpty:
		if d.nOpen >= d.cfg.MaxOpenZones {
			return ErrTooManyOpen
		}
		if d.nActive >= d.cfg.MaxActiveZones {
			return ErrTooManyActive
		}
		zo.state = ZoneOpen
		d.nOpen++
		d.nActive++
		d.jStateLocked(z)
		return nil
	case ZoneClosed:
		if d.nOpen >= d.cfg.MaxOpenZones {
			return ErrTooManyOpen
		}
		zo.state = ZoneOpen
		d.nOpen++
		d.jStateLocked(z)
		return nil
	default:
		return ErrZoneFull
	}
}

// finalizeFullLocked transitions an open zone whose wp hit cap to full.
func (d *Device) finalizeFullLocked(z int) {
	zo := &d.zones[z]
	if zo.state == ZoneOpen && zo.wp >= d.cfg.ZoneCap {
		zo.state = ZoneFull
		d.nOpen--
		d.nActive--
		d.jStateLocked(z)
	}
}

// SetSlowdown injects a service-time multiplier: every subsequent
// command occupies its pipe factor× longer, modelling a device stalled
// by internal housekeeping (GC, wear levelling, thermal throttling).
// factor <= 1 restores normal speed. Used to provoke the flight
// recorder's tail sampler deterministically.
func (d *Device) SetSlowdown(factor float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.slowFactor = factor
}
