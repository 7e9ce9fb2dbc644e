// Package chaos is the deterministic crash/fault-space explorer for a
// RAIZN array. A Scenario describes a workload schedule (writes, flushes,
// resets, scrubs) composed with fault events (device failure, latent
// errors, slowdowns) anchored to named crash points. The explorer runs the
// scenario once to enumerate every crash point it crosses (the census),
// then re-runs it crashing at each crossing: devices are snapshotted with
// a power-loss cut applied (zns.Device.CrashClone), the array is
// remounted from the snapshot on a fresh virtual clock, and the recovery
// checker validates the §5 contracts against the scenario's own model and
// the event journal captured at the instant of the crash (oracle.go).
// A failing composed schedule shrinks to a minimal repro that replays
// deterministically from a printable seed string (shrink.go).
//
// Everything runs on virtual clocks, so the whole exploration is
// bit-reproducible: same scenario + seed => same census, same clones,
// same verdicts.
package chaos

import (
	"fmt"
	"sort"
	"sync"

	"raizn/internal/raizn"
	"raizn/internal/zns"
)

// OpKind enumerates workload steps.
type OpKind int

const (
	// OpWrite appends N sectors of generation-stamped pattern data to
	// logical zone Zone (sequential, at the model's write pointer).
	OpWrite OpKind = iota
	// OpFlush persists all submitted data (volume-level flush).
	OpFlush
	// OpReset resets logical zone Zone (WAL + per-device resets + gen++).
	OpReset
	// OpFinish finishes logical zone Zone (seals tail parity).
	OpFinish
	// OpScrubZone scrubs every stripe of logical zone Zone with repair on.
	OpScrubZone
	// OpMaintain runs metadata GC on every device (GC pressure).
	OpMaintain
	// OpFailDevice fails device Dev (degraded mode from here on).
	OpFailDevice
	// OpInjectReadError marks absolute device sector Sector on device Dev
	// as a latent read error.
	OpInjectReadError
	// OpCorruptSector flips a bit of Sector on device Dev (silent rot).
	// The containing logical zone's content checks are suspended.
	OpCorruptSector
	// OpReadCheck reads logical zone Zone's acknowledged prefix back and
	// verifies the pattern (mid-scenario read path + read-repair traffic).
	OpReadCheck
)

var opNames = map[OpKind]string{
	OpWrite: "write", OpFlush: "flush", OpReset: "reset", OpFinish: "finish",
	OpScrubZone: "scrub", OpMaintain: "maintain", OpFailDevice: "fail-dev",
	OpInjectReadError: "read-err", OpCorruptSector: "corrupt", OpReadCheck: "read-check",
}

// Op is one workload step of a scenario.
type Op struct {
	Kind   OpKind
	Zone   int      // logical zone (Write/Reset/Finish/Scrub/ReadCheck)
	N      int64    // sectors (Write)
	Flags  zns.Flag // write flags (Write)
	Dev    int      // device slot (FailDevice/InjectReadError/CorruptSector)
	Sector int64    // absolute device sector (InjectReadError/CorruptSector)
}

func (o Op) String() string {
	switch o.Kind {
	case OpWrite:
		return fmt.Sprintf("write(z%d,%d,%d)", o.Zone, o.N, o.Flags)
	case OpFailDevice:
		return fmt.Sprintf("fail-dev(%d)", o.Dev)
	case OpInjectReadError, OpCorruptSector:
		return fmt.Sprintf("%s(d%d,s%d)", opNames[o.Kind], o.Dev, o.Sector)
	case OpFlush, OpMaintain:
		return opNames[o.Kind]
	default:
		return fmt.Sprintf("%s(z%d)", opNames[o.Kind], o.Zone)
	}
}

// Fault is a fault event anchored to a named crash point: when the run
// crosses Point for the Occ-th time (0-based, counted per name), the
// fault is applied inline. This is how composed schedules place "device
// dies mid-submit" precisely rather than at an op boundary.
type Fault struct {
	Point  string // crash-point name, e.g. "raizn.write.submit"
	Occ    int    // occurrence index among crossings of that name
	Kind   OpKind // OpFailDevice, OpInjectReadError or OpCorruptSector
	Dev    int
	Sector int64
}

// Scenario is a complete, self-contained chaos schedule.
type Scenario struct {
	Name   string
	NumDev int
	Dev    zns.Config
	Vol    raizn.Config // observability fields are overridden by the runner
	Ops    []Op
	Faults []Fault
}

// volConfig returns the scenario's volume config with the runner-owned
// observability plumbing cleared.
func (s *Scenario) volConfig() raizn.Config {
	cfg := s.Vol
	cfg.Metrics, cfg.Tracer, cfg.Journal = nil, nil, nil
	return cfg
}

// Builder assembles a Scenario.
type Builder struct{ s Scenario }

// New starts a scenario with the default test geometry: 5 devices of 8
// zones (160/128 sectors), 16-sector stripe units — the same scale the
// raizn unit tests use, small enough that hundreds of crash-point runs
// stay cheap.
func New(name string) *Builder {
	dc := zns.DefaultConfig()
	dc.NumZones = 8
	dc.ZoneSize = 160
	dc.ZoneCap = 128
	dc.MaxOpenZones = 8
	dc.MaxActiveZones = 10
	b := &Builder{s: Scenario{Name: name, NumDev: 5, Dev: dc}}
	b.s.Vol = raizn.Config{StripeUnitSectors: 16}
	return b
}

// Devices overrides the device count and configuration.
func (b *Builder) Devices(n int, cfg zns.Config) *Builder {
	b.s.NumDev, b.s.Dev = n, cfg
	return b
}

// Volume overrides the volume configuration (observability fields are
// ignored; the runner owns them).
func (b *Builder) Volume(cfg raizn.Config) *Builder { b.s.Vol = cfg; return b }

// Write appends n sectors of pattern data to logical zone z.
func (b *Builder) Write(z int, n int64) *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpWrite, Zone: z, N: n})
	return b
}

// WriteFUA is Write with the FUA flag (durable on completion).
func (b *Builder) WriteFUA(z int, n int64) *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpWrite, Zone: z, N: n, Flags: zns.FUA})
	return b
}

// Flush persists all submitted data.
func (b *Builder) Flush() *Builder { b.s.Ops = append(b.s.Ops, Op{Kind: OpFlush}); return b }

// Reset resets logical zone z.
func (b *Builder) Reset(z int) *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpReset, Zone: z})
	return b
}

// Finish finishes logical zone z.
func (b *Builder) Finish(z int) *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpFinish, Zone: z})
	return b
}

// Scrub scrubs every stripe of logical zone z with repair enabled.
func (b *Builder) Scrub(z int) *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpScrubZone, Zone: z})
	return b
}

// Maintain runs metadata GC on every device.
func (b *Builder) Maintain() *Builder { b.s.Ops = append(b.s.Ops, Op{Kind: OpMaintain}); return b }

// FailDevice fails device dev at this point of the schedule.
func (b *Builder) FailDevice(dev int) *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpFailDevice, Dev: dev})
	return b
}

// Corrupt flips a bit of the absolute device sector (silent rot). The
// logical zone backed by that physical zone has its content checks
// suspended until a repairing scrub or reset.
func (b *Builder) Corrupt(dev int, sector int64) *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpCorruptSector, Dev: dev, Sector: sector})
	return b
}

// ReadCheck verifies logical zone z's acknowledged prefix mid-scenario.
func (b *Builder) ReadCheck(z int) *Builder {
	b.s.Ops = append(b.s.Ops, Op{Kind: OpReadCheck, Zone: z})
	return b
}

// FaultAt anchors a fault event to the occ-th crossing of the named
// crash point.
func (b *Builder) FaultAt(point string, occ int, f Fault) *Builder {
	f.Point, f.Occ = point, occ
	b.s.Faults = append(b.s.Faults, f)
	return b
}

// Build finalizes the scenario. Scenarios are capped at 64 ops so a
// shrinker repro's kept-op set encodes as one hex mask.
func (b *Builder) Build() *Scenario {
	if len(b.s.Ops) > 64 {
		panic("chaos: scenario exceeds 64 ops")
	}
	s := b.s
	return &s
}

// --- Registry -------------------------------------------------------

var (
	regMu    sync.Mutex
	registry = map[string]*Scenario{}
)

// Register adds a named scenario to the global registry (CLI lookup).
func Register(s *Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[s.Name] = s
}

// Lookup returns the named scenario, or nil.
func Lookup(name string) *Scenario {
	regMu.Lock()
	defer regMu.Unlock()
	return registry[name]
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// --- Workload model --------------------------------------------------

// ZoneModel is the scenario runner's ground truth for one logical zone:
// what was written (and with which generation stamp), what was
// acknowledged, and what is known durable. The oracle compares recovered
// state against these bounds.
type ZoneModel struct {
	Gen         int   // content generation; bumped per completed reset
	WrittenWP   int64 // end of the last write accepted by the volume
	AckedWP     int64 // end of the last write whose completion fired
	FlushedWP   int64 // durable lower bound (flush/FUA/finish completed)
	PendingEnd  int64 // claim of an in-flight write (0 when idle)
	Resetting   bool  // a ResetZone call is in flight
	WALDurable  bool  // the in-flight reset's WAL is on media
	PhysDone    bool  // the in-flight reset finished all device resets
	PreResetWP  int64 // WrittenWP at reset start
	PreResetGen int   // Gen at reset start
	Finishing   bool  // a FinishZone call is in flight
	Finished    bool  // FinishZone completed
	Suspect     bool  // content corrupted by fault injection; skip pattern checks
	// RepairPending: a scrub repaired the corruption, but the repair
	// (relocated data + its metadata record) is not durable until the
	// next flush — a power loss before then legally resurfaces the rot,
	// so Suspect stays set until a flush completes.
	RepairPending bool
}

// Model is the whole-array ground truth maintained by the runner.
type Model struct {
	ZoneSectors int64
	Zones       []ZoneModel
	FailedDevs  []bool
}

func (m *Model) clone() *Model {
	c := &Model{ZoneSectors: m.ZoneSectors}
	c.Zones = append([]ZoneModel(nil), m.Zones...)
	c.FailedDevs = append([]bool(nil), m.FailedDevs...)
	return c
}

// fillPattern stamps buf with the deterministic content of [lba,
// lba+len/ss) at generation gen. Every byte depends on its sector, its
// offset, and the generation, so stale data from before a zone reset can
// never pass a content check for the current generation.
func fillPattern(buf []byte, lba int64, gen int, ss int) {
	g := byte(gen*131 + 17)
	for i := range buf {
		sec := lba + int64(i/ss)
		buf[i] = byte(sec) ^ byte(sec>>8) ^ byte(i%ss) ^ g
	}
}
