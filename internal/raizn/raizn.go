// Package raizn implements RAIZN (Redundant Array of Independent Zoned
// Namespaces, ASPLOS'23): a logical volume manager that exposes a single
// host-managed zoned device on top of an array of ZNS SSDs, striping data
// RAID-5 style with rotating parity.
//
// The package is the paper's core contribution. It implements:
//
//   - arithmetic LBA-to-PBA translation over logical zones built from one
//     physical zone per device (§4.1);
//   - stripe buffers and partial-parity logging so sub-stripe writes are
//     crash-safe without violating the devices' no-overwrite rule (§5.1);
//   - log-structured metadata in reserved zones with generation counters,
//     header-tagged records, and swap-zone garbage collection (§4.3);
//   - zone-reset write-ahead logging and stripe-hole recovery, including
//     relocation of writes that collide with power-loss debris (§5.2);
//   - persistence bitmaps and FUA/flush ordering (§5.3);
//   - degraded reads/writes and prioritized, valid-data-only rebuild of
//     replaced devices (§4.2).
//
// All IO is asynchronous (futures on a virtual clock); Write/Read/etc.
// blocking helpers wrap the Submit* calls.
package raizn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"raizn/internal/obs"
	"raizn/internal/ppengine"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Errors returned by volume operations.
var (
	ErrNotSequential = errors.New("raizn: write not at logical zone write pointer")
	ErrZoneBoundary  = errors.New("raizn: write crosses a logical zone boundary")
	ErrZoneFull      = errors.New("raizn: logical zone is full")
	ErrTooManyOpen   = errors.New("raizn: max open logical zones exceeded")
	ErrOutOfRange    = errors.New("raizn: address out of range")
	ErrUnaligned     = errors.New("raizn: IO not sector aligned")
	ErrReadBeyondWP  = errors.New("raizn: read beyond logical write pointer")
	ErrDegraded      = errors.New("raizn: array already degraded")
	ErrReadOnly      = errors.New("raizn: volume is read-only")
	ErrInconsistent  = errors.New("raizn: array metadata inconsistent")
	ErrNotEnoughDevs = errors.New("raizn: not enough devices")
	// ErrChecksumMismatch fails a reconstruction of a whole stripe unit
	// that disagrees with the stripe's checksum row: a second fault (rot
	// in a survivor) that single parity cannot repair.
	ErrChecksumMismatch = errors.New("raizn: reconstructed unit disagrees with its checksum row")
)

// Config holds the array parameters chosen at creation time.
type Config struct {
	// StripeUnitSectors is the stripe unit ("chunk") size in sectors.
	// The paper settles on 64 KiB (16 sectors) as optimal (§6.1).
	StripeUnitSectors int64
	// MaxOpenZones bounds simultaneously open logical zones. Zero means
	// the device limit minus the reserved metadata zones.
	MaxOpenZones int
	// ParityEngine selects how partial parity is persisted (see
	// internal/ppengine): EngineLogged (default) appends it to the
	// metadata zones as log records (§5.1); EngineZRAID overwrites it in
	// place in slots inside the ZRWA of one dedicated PP zone per device,
	// where superseded images never program to flash.
	ParityEngine ParityEngine
	// RelocationThreshold is the §5.2 "user-modifiable threshold": a
	// logical zone holding at least this many relocated fragments is
	// compacted at mount, rewriting the affected physical zones so all
	// data returns to its arithmetic location. Zero picks the default.
	RelocationThreshold int
	// Metrics is the registry the volume's counters are backed by. Nil
	// creates a private registry (counters still work; they are just not
	// shared with other components).
	Metrics *obs.Registry
	// MetricsLabel namespaces this volume's raizn_* counters and gauges
	// when several arrays share one registry: a non-empty label turns
	// every series into raizn_*{array="<label>"} so a volume manager
	// hosting many arrays gets per-array series instead of silently
	// summed counters. Empty keeps the bare names — the single-array
	// exporter output is unchanged.
	MetricsLabel string
	// Tracer collects per-request spans through the write/read/reset and
	// scrub paths. Nil creates a private, disabled tracer; tracing costs
	// nothing until it is enabled.
	Tracer *obs.Tracer
	// Journal collects state-transition events (zone lifecycle, partial
	// parity, metadata writes, relocation, degraded/rebuild) across the
	// volume and — when supplied — all its devices, which are attached
	// under their array slot. Nil creates a private, disabled journal;
	// recording costs nothing until it is enabled.
	Journal *obs.Journal
}

// ParityEngine selects how partial parity is persisted.
type ParityEngine int

const (
	// EngineLogged is the paper's partial-parity logging (§5.1): log
	// records (4 KiB header + parity payload) in the dedicated metadata
	// zone, requiring no optional device features.
	EngineLogged ParityEngine = iota
	// EngineZRAID is the ZRAID design: partial parity lives in a fixed
	// table of slots that never leaves the ZRWA window of one dedicated
	// PP zone per device, overwritten in place; an image the table has no
	// room for is logged as with EngineLogged. Requires devices with
	// ZRWASectors >= StripeUnitSectors+1.
	EngineZRAID
)

// String names the design as reports print it: "logged" or "zraid".
func (e ParityEngine) String() string {
	if e == EngineZRAID {
		return "zraid"
	}
	return "logged"
}

// ReservedZones returns how many physical zones per device the
// configuration reserves outside the logical address space: the metadata
// zones plus, for the zraid engine, the PP zone. Usable before
// withDefaults is applied.
func (c Config) ReservedZones() int {
	return metadataZones + c.ppZones()
}

// ppZones returns the number of PP zones per device: one for the zraid
// engine, none for the logged engine.
func (c Config) ppZones() int {
	if c.ParityEngine == EngineZRAID {
		return 1
	}
	return 0
}

// DefaultConfig returns the paper's evaluation configuration: 64 KiB
// stripe units.
func DefaultConfig() Config {
	return Config{StripeUnitSectors: 16}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.StripeUnitSectors == 0 {
		out.StripeUnitSectors = 16
	}
	if out.RelocationThreshold == 0 {
		out.RelocationThreshold = 64
	}
	return out
}

// stripeBuffersPerZone is the number of stripe buffers each logical zone
// owns: a write holds at most two, the stripe it completes and the one it
// leaves partial, and frees the first once its sub-IOs are issued, before
// it releases the zone. (The paper's kernel target keeps 8, §5.1.)
const stripeBuffersPerZone = 2

// stripeBuffer accumulates one in-progress stripe so its parity needs no
// device reads (§5.1). It holds the stripe's running parity, not its data:
// each write folds its chunk in once (foldLocked), and a partial-parity
// frame or the completed stripe's parity image is a copy of par.
type stripeBuffer struct {
	stripe int64    // zone-relative stripe index, -1 when free
	fill   int64    // data sectors present, always a dense prefix
	par    []byte   // one unit: the parity of the written prefix, valid over [0, min(fill, su))
	crcs   []uint32 // CRC32-C of each data unit's written prefix
}

// logicalZone is the in-memory descriptor of one logical zone (paper
// Table 1: logical zone descriptors + stripe buffers + persistence
// bitmap).
type logicalZone struct {
	idx int

	mu   sync.Mutex
	cond *vclock.Cond // waits: reset completion, unpublished writes

	state       zns.ZoneState
	wp          int64 // zone-relative sectors claimed by accepted writes
	submittedWP int64 // zone-relative sectors whose sub-IOs are on the devices
	persistedWP int64 // zone-relative sectors known durable: a view derived from the ledger
	resetting   bool

	// Durability ledger, zone side (ledger.go): what the zone still owes
	// each device, the newest durable (FUA/Preflush) write still in flight
	// — every later one completes behind it — and the number of writes
	// that have submitted but not yet published their metadata appends.
	led         []zoneMarks
	lastDurable *vclock.Future
	unpublished int

	free   []*stripeBuffer         // buffer pool
	active map[int64]*stripeBuffer // stripe index -> buffer in use

	remapped bool // zone has relocated fragments (check reloc map on read)
}

// relocEntry records one relocated fragment: a logical range whose data
// lives in a metadata zone instead of its arithmetic location (§5.2).
type relocEntry struct {
	startLBA, endLBA int64
	dev              int    // device holding the relocated payload
	data             []byte // in-memory cache (authoritative for reads)
}

// Volume is a RAIZN logical volume. All exported methods are safe for
// concurrent use by simulated goroutines.
type Volume struct {
	clk        *vclock.Clock
	cfg        Config
	lt         *layout
	sectorSize int
	arrayID    uint64
	discard    bool // the devices drop payloads (zns.Config.DiscardData)

	devs []*zns.Device // nil = failed/removed slot
	md   []*mdManager  // per-device metadata manager (nil when dev nil)

	mu           sync.Mutex
	gen          []uint64 // generation counter per logical zone
	mdSeq        uint64   // sequence for zone-independent records
	degraded     int      // failed device index, or -1
	readOnly     bool
	openCount    int
	rebuilding   bool           // a device replacement is in progress
	rebuiltZones []bool         // during rebuild: zones already re-synced
	pendingWALs  map[int]uint64 // zone-reset intents not yet superseded

	relocMu     sync.Mutex
	reloc       map[int][]relocEntry         // logical zone -> data fragments (sorted by startLBA)
	parityReloc map[int]map[int64]relocEntry // logical zone -> stripe -> relocated parity unit

	// Stripe-unit checksum tables (see checksum.go): per logical zone,
	// n CRC32-C values per complete stripe plus a per-stripe valid flag,
	// and the cursor: the first stripe whose row no log record holds yet.
	csMu   sync.Mutex
	cs     [][]uint32
	csHave [][]bool
	csNext []int64

	// scrubPos[z] is one past the last stripe the scrubber verified in
	// zone z this pass epoch (see scrub.go); devErrs holds per-device
	// health counters fed by foreground reads and scrub.
	scrubMu  sync.Mutex
	scrubPos []int64
	devErrs  []deviceErrors

	zones []*logicalZone

	maxOpen int

	// slots is the zraid slot table partial parity goes to first (nil
	// unless Config.ParityEngine is EngineZRAID). Immutable after
	// construction.
	slots *ppengine.SlotTable

	// devTable is an immutable snapshot of the device/metadata-manager
	// slots, swapped atomically whenever v.devs/v.md/rebuild state change
	// under v.mu. Hot-path lookups (dev, devForZone, mdm) load it once
	// instead of taking v.mu per sub-IO.
	devTable atomic.Pointer[devTable]

	// led is the device side of the durability ledger (ledger.go), one
	// entry per device slot.
	led []devLedger

	// Hot-path free lists: per-write state including plan/parity/CRC
	// slices and parity image buffers (write.go), SubmitFlush's scratch,
	// and read joins, each with the reconstruction job of a degraded piece
	// or of rebuild (read.go).
	wsPool    freeList[writeState]
	flushPool freeList[flushState]
	readPool  freeList[readJoin]

	reg    *obs.Registry
	tracer *obs.Tracer
	jrn    *obs.Journal
	stats  statsCounters

	// Crash-point hook (AttachHook); fired at the write plan/submit
	// boundaries, metadata and partial-parity appends, reset and
	// rebuild steps — always outside v.mu and the zone locks. Nil until
	// attached.
	hook obs.Hook

	// blackBox holds the newest flight-recorder black box persisted via
	// PersistBlackBox or recovered by the mount-time metadata scan;
	// metadata GC checkpoints re-emit it (checkpointRecords) so the
	// forensic record survives log roll-over. Guarded by v.mu.
	blackBox    []byte
	blackBoxGen uint64
}

// freeList is a mutex-guarded LIFO of reusable objects. Unlike a
// sync.Pool it is not emptied by a garbage collection and keeps no
// per-P slot, so how many objects a workload allocates does not depend
// on the scheduler: it is the most that were ever out at once.
type freeList[T any] struct {
	mu    sync.Mutex
	items []*T
}

// get returns the object put back last, or nil when the list is empty.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return nil
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// put returns x to the list.
func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.items = append(l.items, x)
	l.mu.Unlock()
}

// devTable is the immutable device-slot snapshot published under v.mu.
type devTable struct {
	devs         []*zns.Device
	md           []*mdManager
	degraded     int
	rebuilding   bool
	rebuiltZones []bool
}

// zoneDev returns the device at slot i for IO against logical zone z.
// During a rebuild, the replacement device is invisible for zones that
// have not been re-synced yet: reads take the degraded path and writes
// omit it (§4.2, "writes to non-rebuilt open zones are served in degraded
// mode").
func (t *devTable) zoneDev(i, z int) *zns.Device {
	if t.rebuilding && i == t.degraded && t.rebuiltZones != nil && !t.rebuiltZones[z] {
		return nil
	}
	return t.devs[i]
}

// publishDevTableLocked snapshots the mutable device state into a fresh
// devTable for lock-free readers. Caller holds v.mu (or has exclusive
// access during volume construction). The slices are copied: v.devs,
// v.md and v.rebuiltZones remain the mutable masters.
func (v *Volume) publishDevTableLocked() {
	t := &devTable{
		devs:       append([]*zns.Device(nil), v.devs...),
		md:         append([]*mdManager(nil), v.md...),
		degraded:   v.degraded,
		rebuilding: v.rebuilding,
	}
	if v.rebuiltZones != nil {
		t.rebuiltZones = append([]bool(nil), v.rebuiltZones...)
	}
	v.devTable.Store(t)
}

// loadDevs returns the current device-table snapshot.
func (v *Volume) loadDevs() *devTable { return v.devTable.Load() }

// deviceErrors accumulates health-relevant events for one device slot.
type deviceErrors struct {
	readErrors  atomic.Int64 // reads failed with a latent/medium error
	corruptions atomic.Int64 // checksum mismatches attributed to this device
}

// Create initializes a new RAIZN array over the devices (which must be
// identical and empty) and returns the mounted volume.
func Create(clk *vclock.Clock, devs []*zns.Device, cfg Config) (*Volume, error) {
	v, err := newVolume(clk, devs, cfg)
	if err != nil {
		return nil, err
	}
	for _, d := range devs {
		for _, zd := range d.ReportZones() {
			if zd.State != zns.ZoneEmpty {
				return nil, fmt.Errorf("raizn: create on non-empty device (zone %d %v)", zd.Index, zd.State)
			}
		}
	}
	// Persist a superblock on every device.
	var futs []*vclock.Future
	for i := range devs {
		sb := superblock{
			version:   1,
			arrayID:   v.arrayID,
			numDev:    uint32(len(devs)),
			devIndex:  uint32(i),
			su:        v.lt.su,
			physZones: uint32(devs[i].Config().NumZones),
			mdZones:   uint32(v.lt.mdZones),
		}
		fut, _, err := v.md[i].append(&record{
			typ:    recSuperblock,
			gen:    v.nextMDSeq(),
			inline: sb.encode(),
		}, zns.FUA)
		if err != nil {
			return nil, err
		}
		futs = append(futs, fut)
	}
	if err := vclock.WaitAll(futs...); err != nil {
		return nil, err
	}
	return v, nil
}

// newVolume builds the in-memory volume structure shared by Create and
// Mount.
func newVolume(clk *vclock.Clock, devs []*zns.Device, cfg Config) (*Volume, error) {
	cfg = cfg.withDefaults()
	if len(devs) < 3 {
		return nil, ErrNotEnoughDevs
	}
	var ref *zns.Device
	for _, d := range devs {
		if d != nil {
			ref = d
			break
		}
	}
	if ref == nil {
		return nil, ErrNotEnoughDevs
	}
	dc := ref.Config()
	for _, d := range devs {
		if d == nil {
			continue
		}
		c := d.Config()
		if c.SectorSize != dc.SectorSize || c.NumZones != dc.NumZones ||
			c.ZoneSize != dc.ZoneSize || c.ZoneCap != dc.ZoneCap {
			return nil, errors.New("raizn: devices have mismatched geometry")
		}
	}
	if dc.ZoneCap%cfg.StripeUnitSectors != 0 {
		return nil, errors.New("raizn: zone capacity not a multiple of the stripe unit")
	}
	ppZones := cfg.ppZones()
	if ppZones > 0 && dc.ZRWASectors < cfg.StripeUnitSectors+1 {
		return nil, errors.New("raizn: the zraid engine requires a random write area of at least one PP slot (stripe unit + header)")
	}
	numZones := dc.NumZones - metadataZones - ppZones
	if numZones < 1 {
		return nil, errors.New("raizn: no data zones left after metadata reservation")
	}
	lt := &layout{
		n:            len(devs),
		d:            len(devs) - 1,
		su:           cfg.StripeUnitSectors,
		physZoneSize: dc.ZoneSize,
		physZoneCap:  dc.ZoneCap,
		numZones:     numZones,
		mdZones:      metadataZones,
		ppZones:      ppZones,
	}
	maxOpen := cfg.MaxOpenZones
	if maxOpen == 0 {
		maxOpen = dc.MaxOpenZones - metadataZones
		// The zraid engine keeps its PP zone open on every device.
		maxOpen -= ppZones
		if maxOpen < 1 {
			maxOpen = 1
		}
	}
	// A metadata zone must be able to hold a full checkpoint (one
	// partial-parity record of up to 1+SU sectors per open logical zone,
	// plus superblock/counters) with room left for new records, or
	// metadata GC cannot make progress.
	if dc.ZoneCap < int64(maxOpen+2)*(cfg.StripeUnitSectors+1) {
		return nil, errors.New("raizn: zone capacity too small for metadata checkpoints; increase zone capacity or reduce MaxOpenZones")
	}
	// The array id written into every superblock is derived from the
	// geometry; mount checks that all devices' superblocks agree on it.
	arrayID := uint64(lt.n)<<32 ^ uint64(lt.su)<<16 ^ uint64(lt.numZones)
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tracer := cfg.Tracer
	if tracer == nil {
		tracer = obs.NewTracer(clk, obs.Config{})
	}
	jrn := cfg.Journal
	if jrn == nil {
		jrn = obs.NewJournal(clk, obs.JournalConfig{})
	} else {
		// A shared journal covers the devices too: each records under
		// its array slot, so analyzers can correlate logical events
		// (SrcLogical) with the physical transitions they caused.
		for i, d := range devs {
			if d != nil {
				d.AttachJournal(jrn, i)
			}
		}
	}
	v := &Volume{
		clk:         clk,
		cfg:         cfg,
		lt:          lt,
		reg:         reg,
		tracer:      tracer,
		jrn:         jrn,
		sectorSize:  dc.SectorSize,
		discard:     dc.DiscardData,
		arrayID:     arrayID,
		devs:        append([]*zns.Device(nil), devs...),
		md:          make([]*mdManager, len(devs)),
		led:         make([]devLedger, len(devs)),
		gen:         make([]uint64, numZones),
		degraded:    -1,
		reloc:       make(map[int][]relocEntry),
		parityReloc: make(map[int]map[int64]relocEntry),
		pendingWALs: make(map[int]uint64),
		cs:          make([][]uint32, numZones),
		csHave:      make([][]bool, numZones),
		csNext:      make([]int64, numZones),
		scrubPos:    make([]int64, numZones),
		devErrs:     make([]deviceErrors, len(devs)),
		zones:       make([]*logicalZone, numZones),
		maxOpen:     maxOpen,
	}
	for i := range devs {
		if devs[i] != nil {
			v.md[i] = newMDManager(v, i)
		}
		// A device is presumed dirty until its first flush: mount-time
		// repairs write to it without going through the ledger.
		v.led[i].submitted(false)
		v.led[i].retired = make([]uint64, lt.mdZones)
	}
	v.stats = newStatsCounters(reg, cfg.MetricsLabel)
	reg.GaugeFunc(obs.LabeledName("raizn_degraded_slot", "array", cfg.MetricsLabel), func() int64 {
		v.mu.Lock()
		defer v.mu.Unlock()
		return int64(v.degraded)
	})
	reg.GaugeFunc(obs.LabeledName("raizn_open_zones", "array", cfg.MetricsLabel), func() int64 {
		v.mu.Lock()
		defer v.mu.Unlock()
		return int64(v.openCount)
	})
	for z := range v.zones {
		v.zones[z] = v.newLogicalZone(z)
	}
	v.publishDevTableLocked()
	if cfg.ParityEngine == EngineZRAID {
		slots, err := ppengine.NewSlotTable(ppengine.SlotConfig{
			NumDevices:  lt.n,
			Device:      v.dev,
			PPZone:      lt.numZones + lt.mdZones,
			SectorSize:  dc.SectorSize,
			SU:          lt.su,
			ZoneCap:     dc.ZoneCap,
			ZRWASectors: dc.ZRWASectors,
		})
		if err != nil {
			return nil, err
		}
		v.slots = slots
	}
	registerEngineMetrics(reg, cfg.MetricsLabel, v.PPEngineStats)
	return v, nil
}

// ParityEngineKind reports how the volume persists partial parity.
func (v *Volume) ParityEngineKind() ParityEngine { return v.cfg.ParityEngine }

// PPEngineStats returns the partial-parity lifetime counters
// (volatile/permanent byte split, images logged on overflow). A logged
// array's are its WA accounting: every logged PP byte is programmed to
// flash.
func (v *Volume) PPEngineStats() ppengine.Stats {
	if v.slots == nil {
		return ppengine.Stats{PermanentBytes: v.stats.waPPHeaderBytes.Load() + v.stats.waPPPayloadBytes.Load()}
	}
	return v.slots.Stats()
}

// Tracer returns the volume's span tracer (never nil; disabled unless
// the caller enabled it or supplied an enabled one via Config).
func (v *Volume) Tracer() *obs.Tracer { return v.tracer }

// Metrics returns the registry the volume's counters live in.
func (v *Volume) Metrics() *obs.Registry { return v.reg }

// Journal returns the volume's event journal (never nil; disabled
// unless the caller enabled it or supplied an enabled one via Config).
func (v *Volume) Journal() *obs.Journal { return v.jrn }

// AttachHook points the volume at a crash-point hook (see obs.HookPoint
// for the point taxonomy). Attach while the volume is quiescent —
// conventionally right after Create/Mount returns and before workload IO
// is issued; passing nil detaches. Device-level points are attached
// separately via zns.Device.AttachHook.
func (v *Volume) AttachHook(h obs.Hook) { v.hook = h }

// fireHook invokes the attached crash-point hook; free when detached.
// Callers must not hold v.mu or any zone lock.
func (v *Volume) fireHook(name string, src, zone int, arg int64) {
	if v.hook != nil {
		v.hook(obs.HookPoint{Name: name, Src: src, Zone: zone, Arg: arg})
	}
}

func (v *Volume) newLogicalZone(z int) *logicalZone {
	lz := &logicalZone{
		idx:    z,
		state:  zns.ZoneEmpty,
		active: make(map[int64]*stripeBuffer),
		led:    make([]zoneMarks, v.lt.n),
	}
	lz.cond = v.clk.NewCond(&lz.mu)
	for range stripeBuffersPerZone {
		lz.free = append(lz.free, &stripeBuffer{
			stripe: -1,
			par:    make([]byte, v.lt.su*int64(v.sectorSize)),
			crcs:   make([]uint32, v.lt.d),
		})
	}
	return lz
}

func (v *Volume) nextMDSeq() uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.mdSeq++
	return v.mdSeq
}

// --- Geometry accessors (the ZNS face RAIZN exposes to the host) ---

// SectorSize returns the logical block size in bytes.
func (v *Volume) SectorSize() int { return v.sectorSize }

// NumZones returns the number of logical zones.
func (v *Volume) NumZones() int { return v.lt.numZones }

// NumDevices returns the number of device slots in the array.
func (v *Volume) NumDevices() int { return v.lt.n }

// ZoneSectors returns the capacity (and address-space stride) of a
// logical zone in sectors: D physical zone capacities.
func (v *Volume) ZoneSectors() int64 { return v.lt.zoneSectors() }

// NumSectors returns the volume's logical capacity in sectors.
func (v *Volume) NumSectors() int64 { return v.lt.numSectors() }

// PhysZoneRole reports how the array uses physical zone index z on every
// device: "data" (striped user data + parity), "md" (reserved metadata
// log), or "pp" (the dedicated partial-parity zone; only the zraid engine
// reserves one). Zones past the reserved region are "data" — the layout
// never addresses them.
func (v *Volume) PhysZoneRole(z int) string {
	switch {
	case z >= v.lt.numZones+v.lt.mdZones && z < v.lt.numZones+v.lt.mdZones+v.lt.ppZones:
		return "pp"
	case z >= v.lt.numZones && z < v.lt.numZones+v.lt.mdZones:
		return "md"
	default:
		return "data"
	}
}

// UnitLocation returns the device and device-absolute sector where stripe
// unit u of stripe s in logical zone z starts: a data unit for u < D, the
// parity unit for u == D (stripePiece's numbering). Every unit of a stripe
// starts at the same offset of its device's physical zone. It is the
// arithmetic location; relocated fragments are not followed.
func (v *Volume) UnitLocation(z int, s int64, u int) (dev int, sector int64) {
	dev = v.lt.parityDev(z, s)
	if u < v.lt.d {
		dev = v.lt.dataDev(z, s, u)
	}
	return dev, v.lt.parityPBA(z, s)
}

// StripeSectors returns the data sectors per stripe (D stripe units).
func (v *Volume) StripeSectors() int64 { return v.lt.stripeSectors() }

// MaxOpenZones returns the maximum number of simultaneously open logical
// zones.
func (v *Volume) MaxOpenZones() int { return v.maxOpen }

// ZoneDesc describes a logical zone to the host.
type ZoneDesc struct {
	Index       int
	State       zns.ZoneState
	WP          int64 // absolute LBA of the logical write pointer
	PersistedWP int64 // absolute LBA below which data is known durable
	Remapped    bool  // zone holds relocated fragments
}

// Zone returns the descriptor of logical zone z.
func (v *Volume) Zone(z int) ZoneDesc {
	lz := v.zones[z]
	lz.mu.Lock()
	defer lz.mu.Unlock()
	return ZoneDesc{
		Index:       z,
		State:       lz.state,
		WP:          v.lt.zoneStart(z) + lz.submittedWP,
		PersistedWP: v.lt.zoneStart(z) + lz.persistedWP,
		Remapped:    lz.remapped,
	}
}

// ReportZones returns descriptors for every logical zone.
func (v *Volume) ReportZones() []ZoneDesc {
	out := make([]ZoneDesc, v.lt.numZones)
	for z := range out {
		out[z] = v.Zone(z)
	}
	return out
}

// Generation returns the generation counter of logical zone z.
func (v *Volume) Generation(z int) uint64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.gen[z]
}

// Degraded returns the failed device index, or -1 if the array is whole.
func (v *Volume) Degraded() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.degraded
}

// ReadOnly reports whether the volume has entered read-only mode.
func (v *Volume) ReadOnly() bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.readOnly
}

// FailDevice marks device i failed, entering degraded mode. A second
// failure is fatal for RAID-5; it returns ErrDegraded and puts the volume
// in read-only mode.
func (v *Volume) FailDevice(i int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.failDeviceLocked(i)
}

func (v *Volume) failDeviceLocked(i int) error {
	if v.degraded == i {
		return nil
	}
	if v.degraded >= 0 {
		v.readOnly = true
		return ErrDegraded
	}
	v.degraded = i
	if v.devs[i] != nil {
		v.devs[i].Fail()
	}
	v.devs[i] = nil
	v.md[i] = nil
	v.publishDevTableLocked()
	v.jrn.Record(obs.EvDegraded, i, -1, 1, 0, 0, 0)
	return nil
}

// noteDeviceError inspects a sub-IO error and transitions to degraded
// mode when a device has died underneath us.
func (v *Volume) noteDeviceError(dev int, err error) {
	if errors.Is(err, zns.ErrReadMedium) {
		v.noteReadMedium(dev)
		return
	}
	if errors.Is(err, zns.ErrDeviceFailed) {
		v.mu.Lock()
		_ = v.failDeviceLocked(dev)
		v.mu.Unlock()
	}
}

// dev returns the device at slot i, or nil if failed. Lock-free: reads
// the published device-table snapshot.
func (v *Volume) dev(i int) *zns.Device {
	return v.loadDevs().devs[i]
}

// devForZone returns the device at slot i for IO against logical zone z;
// see devTable.zoneDev. Lock-free.
func (v *Volume) devForZone(i, z int) *zns.Device {
	return v.loadDevs().zoneDev(i, z)
}

// mdm returns the metadata manager of device i, or nil. Lock-free.
func (v *Volume) mdm(i int) *mdManager {
	return v.loadDevs().md[i]
}

// Unmount appends every zone's pending checksum run, waits for in-flight
// metadata-zone reclaims — one of those appends may have rolled a log
// over — and flushes all devices. The volume object must not be used
// afterwards.
func (v *Volume) Unmount() error {
	first := v.awaitSubIOs(v.persistRuns(nil, nil, 0))
	for _, m := range v.loadDevs().md {
		if m == nil {
			continue
		}
		if err := m.quiesce(); err != nil && first == nil {
			first = err
		}
	}
	if err := v.SubmitFlush().Wait(); err != nil {
		return err
	}
	return first
}

// --- Blocking convenience wrappers ---

// Write writes data at lba and blocks until it completes.
func (v *Volume) Write(lba int64, data []byte, flags zns.Flag) error {
	return v.SubmitWrite(lba, data, flags).Wait()
}

// Read fills buf from lba and blocks until it completes.
func (v *Volume) Read(lba int64, buf []byte) error {
	return v.SubmitRead(lba, buf).Wait()
}

// Flush persists all previously completed writes on every device.
func (v *Volume) Flush() error {
	return v.SubmitFlush().Wait()
}
