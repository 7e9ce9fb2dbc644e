// Package volmgr is the multi-tenant serving front end: it hosts many
// RAIZN arrays behind a volume abstraction and decouples thousands of
// concurrent client goroutines from the arrays' per-zone sequential write
// path.
//
// Three layers, top to bottom:
//
//   - Volume manager: named logical volumes whose zone-granular LBA space
//     is sharded across the hosted arrays with a deterministic extent map
//     (extent i of a volume lands on the array the manager's round-robin
//     cursor pointed at when the volume was created; each extent is one
//     logical zone of its array). A volume inherits zoned semantics —
//     per-zone sequential writes — so the mapping stays pure arithmetic.
//   - Async request engine: an idle volume issues a request to its array
//     on the submitting goroutine; otherwise it waits in a per-volume
//     bounded submission queue (one FIFO per tenant) for a single
//     dispatcher goroutine that dequeues in batches, coalesces physically
//     contiguous writes into one array command, and issues against the
//     arrays under a bounded in-flight window. Completions resolve
//     per-request futures on the virtual clock and feed per-tenant
//     latency accounting.
//   - Per-tenant QoS: deficit-round-robin weighted fair scheduling at
//     dequeue, token-bucket throughput/IOPS limits, and admission
//     control that sheds load with a typed ErrThrottled once a tenant's
//     queue is full instead of queueing without bound.
//
// Everything runs on the simulation's virtual clock; the package has no
// real-time dependencies.
package volmgr

import (
	"errors"
	"fmt"
	"sync"

	"raizn/internal/obs"
	"raizn/internal/obs/flight"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Errors returned by the manager and the engine. ThrottledError wraps
// ErrThrottled so callers can errors.Is against the sentinel or
// errors.As for the tenant detail.
var (
	ErrThrottled      = errors.New("volmgr: throttled")
	ErrClosed         = errors.New("volmgr: volume closed")
	ErrUnknownTenant  = errors.New("volmgr: unknown tenant")
	ErrNoSpace        = errors.New("volmgr: not enough free zones across arrays")
	ErrExists         = errors.New("volmgr: volume already exists")
	ErrExtentBoundary = errors.New("volmgr: request crosses an extent boundary")
	ErrUnaligned      = errors.New("volmgr: IO not sector aligned")
	ErrOutOfRange     = errors.New("volmgr: address out of range")
)

// ThrottledError is the typed admission-control rejection: the tenant's
// submission queue was full (or the tenant exceeded a hard limit), so
// the request was shed instead of queued.
type ThrottledError struct {
	Volume string
	Tenant string
	Reason string
}

func (e *ThrottledError) Error() string {
	return fmt.Sprintf("volmgr: %s/%s throttled: %s", e.Volume, e.Tenant, e.Reason)
}

// Unwrap lets errors.Is(err, ErrThrottled) match.
func (e *ThrottledError) Unwrap() error { return ErrThrottled }

// Array is one hosted RAIZN array plus its zone allocator. Zones are
// handed to volumes in index order; the allocator never reuses a zone
// (volumes are long-lived in this model — reclamation is out of scope).
type Array struct {
	id  string
	vol *raizn.Volume

	mu       sync.Mutex
	nextZone int
}

// ID returns the array's label (also its metrics label when the caller
// created the raizn volume with Config.MetricsLabel).
func (a *Array) ID() string { return a.id }

// Volume returns the underlying RAIZN volume.
func (a *Array) Volume() *raizn.Volume { return a.vol }

// FreeZones returns how many unallocated logical zones remain.
func (a *Array) FreeZones() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.vol.NumZones() - a.nextZone
}

// allocZone claims the next free logical zone, or -1 when exhausted.
func (a *Array) allocZone() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.nextZone >= a.vol.NumZones() {
		return -1
	}
	z := a.nextZone
	a.nextZone++
	return z
}

// Config holds manager-wide parameters.
type Config struct {
	// Registry receives the manager's and every volume's metrics. Nil
	// creates a private registry.
	Registry *obs.Registry
}

// Manager hosts arrays and serves volumes.
type Manager struct {
	clk *vclock.Clock
	reg *obs.Registry

	mu        sync.Mutex
	arrays    []*Array
	cursor    int // round-robin extent-placement cursor
	vols      map[string]*Volume
	volOrder  []string
	recorders map[string]*flight.Recorder // per-array flight recorders
}

// NewManager returns an empty manager bound to the clock.
func NewManager(clk *vclock.Clock, cfg Config) *Manager {
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Manager{
		clk:  clk,
		reg:  reg,
		vols: make(map[string]*Volume),
	}
}

// Metrics returns the manager's registry.
func (m *Manager) Metrics() *obs.Registry { return m.reg }

// AddArray hosts a RAIZN array under the given id. Every hosted array
// must share the geometry of the first (same sector size and logical
// zone capacity), or the arithmetic extent map breaks.
func (m *Manager) AddArray(id string, v *raizn.Volume) (*Array, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, a := range m.arrays {
		if a.id == id {
			return nil, fmt.Errorf("volmgr: array %q already hosted", id)
		}
	}
	if len(m.arrays) > 0 {
		ref := m.arrays[0].vol
		if v.SectorSize() != ref.SectorSize() || v.ZoneSectors() != ref.ZoneSectors() {
			return nil, errors.New("volmgr: array geometry mismatch")
		}
	}
	a := &Array{id: id, vol: v}
	m.arrays = append(m.arrays, a)
	return a, nil
}

// Arrays returns the hosted arrays in registration order.
func (m *Manager) Arrays() []*Array {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Array(nil), m.arrays...)
}

// extent maps one volume zone to one logical zone of one array.
type extent struct {
	arr  *Array
	zone int
}

// ExtentDesc describes one extent-map entry for inspection tools.
type ExtentDesc struct {
	Index int    // volume zone index
	Array string // hosting array id
	Zone  int    // logical zone on that array
}

// VolumeSpec parameterizes CreateVolume.
type VolumeSpec struct {
	// Zones is the volume's logical zone count (capacity = Zones × the
	// arrays' zone size). Must be >= 1.
	Zones int
	// Engine tunes the volume's submission engine.
	Engine EngineConfig
	// Tenants pre-registers the tenant population; more can be added
	// later with Volume.AddTenant.
	Tenants []TenantConfig
}

// CreateVolume creates a named logical volume of spec.Zones zones,
// sharding its zone list across the hosted arrays: each extent is
// placed on the array under the manager's round-robin cursor (skipping
// exhausted arrays), and claims that array's next free zone. The
// placement is a pure function of array registration order and volume
// creation order, so the extent map is reproducible run to run.
func (m *Manager) CreateVolume(name string, spec VolumeSpec) (*Volume, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.arrays) == 0 {
		return nil, errors.New("volmgr: no arrays hosted")
	}
	if spec.Zones < 1 {
		return nil, errors.New("volmgr: volume needs at least one zone")
	}
	if _, ok := m.vols[name]; ok {
		return nil, ErrExists
	}
	free := 0
	for _, a := range m.arrays {
		free += a.vol.NumZones() - a.nextZone
	}
	if spec.Zones > free {
		return nil, ErrNoSpace
	}
	extents := make([]extent, 0, spec.Zones)
	for len(extents) < spec.Zones {
		a := m.arrays[m.cursor%len(m.arrays)]
		m.cursor++
		z := a.allocZone()
		if z < 0 {
			continue // exhausted array; cursor already advanced past it
		}
		extents = append(extents, extent{arr: a, zone: z})
	}
	ref := m.arrays[0].vol
	v := &Volume{
		name:        name,
		clk:         m.clk,
		reg:         m.reg,
		extents:     extents,
		zoneSectors: ref.ZoneSectors(),
		sectorSize:  ref.SectorSize(),
	}
	v.eng = newEngine(v, spec.Engine)
	for _, tc := range spec.Tenants {
		if err := v.eng.addTenant(tc); err != nil {
			return nil, err
		}
	}
	v.eng.start()
	m.vols[name] = v
	m.volOrder = append(m.volOrder, name)
	return v, nil
}

// AttachRecorder binds a flight recorder to a hosted array so that SLO
// breaches attributed to the array can freeze its black box. Passing a
// nil recorder detaches.
func (m *Manager) AttachRecorder(arrayID string, rec *flight.Recorder) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.recorders == nil {
		m.recorders = make(map[string]*flight.Recorder)
	}
	if rec == nil {
		delete(m.recorders, arrayID)
		return
	}
	m.recorders[arrayID] = rec
}

// CheckIncidents sweeps every volume's SLO alarm and converts breaches
// into incidents: each breaching tenant's most-implicated array (per
// TenantArrayAttribution) is looked up, and if that array has an
// attached flight recorder the recorder is frozen with an SLO-breach
// trigger carrying the tenant/array attribution. Breaches whose top
// array has no recorder are skipped. Volumes are visited in creation
// order and breaches arrive worst-first, so the incident list is
// deterministic; at most one incident is filed per array per sweep (a
// second breach implicating an already-frozen array adds no evidence —
// freeze is first-wins).
func (m *Manager) CheckIncidents() []*flight.Incident {
	var out []*flight.Incident
	for _, v := range m.Volumes() {
		for _, br := range v.Alarm().Check() {
			attr := v.TenantArrayAttribution(br.Tenant)
			if len(attr) == 0 {
				continue
			}
			arr := attr[0].Array
			m.mu.Lock()
			rec := m.recorders[arr]
			m.mu.Unlock()
			if rec == nil || rec.Frozen() {
				continue
			}
			out = append(out, rec.Incident(flight.Trigger{
				Kind: flight.TrigSLOBreach,
				TNs:  int64(m.clk.Now()),
				Detail: fmt.Sprintf("volume %s tenant %s p99 %v > bar %v over %d samples",
					v.Name(), br.Tenant, br.P99, br.Bar, br.Samples),
				Dev:    -1,
				Zone:   -1,
				Tenant: br.Tenant,
				Array:  arr,
			}))
		}
	}
	return out
}

// Volume looks up a volume by name.
func (m *Manager) Volume(name string) *Volume {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.vols[name]
}

// Volumes returns the volumes in creation order.
func (m *Manager) Volumes() []*Volume {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Volume, 0, len(m.volOrder))
	for _, n := range m.volOrder {
		out = append(out, m.vols[n])
	}
	return out
}

// Close drains and closes every volume (in creation order), then
// flushes every hosted array. Must be called from a simulated goroutine
// before the simulation ends, or the volumes' dispatcher goroutines
// keep the clock alive.
func (m *Manager) Close() error {
	var first error
	for _, v := range m.Volumes() {
		if err := v.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, a := range m.Arrays() {
		if err := a.vol.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Volume is one named, multi-tenant logical volume. Its LBA space is
// the concatenation of its extents; like the arrays beneath it, writes
// within a zone must be sequential. All methods are safe for concurrent
// use by simulated goroutines.
type Volume struct {
	name        string
	clk         *vclock.Clock
	reg         *obs.Registry
	extents     []extent
	zoneSectors int64
	sectorSize  int
	eng         *engine
}

// Name returns the volume's name.
func (v *Volume) Name() string { return v.name }

// NumZones returns the volume's logical zone count.
func (v *Volume) NumZones() int { return len(v.extents) }

// ZoneSectors returns the zone capacity in sectors.
func (v *Volume) ZoneSectors() int64 { return v.zoneSectors }

// NumSectors returns the volume capacity in sectors.
func (v *Volume) NumSectors() int64 { return int64(len(v.extents)) * v.zoneSectors }

// SectorSize returns the logical block size in bytes.
func (v *Volume) SectorSize() int { return v.sectorSize }

// Alarm returns the volume's per-tenant SLO alarm.
func (v *Volume) Alarm() *obs.SLOAlarm { return v.eng.alarm }

// ExtentMap returns the volume's extent map in zone order.
func (v *Volume) ExtentMap() []ExtentDesc {
	out := make([]ExtentDesc, len(v.extents))
	for i, e := range v.extents {
		out[i] = ExtentDesc{Index: i, Array: e.arr.id, Zone: e.zone}
	}
	return out
}

// locate translates a volume LBA range to (extent, array LBA). The
// range must lie inside one extent.
func (v *Volume) locate(lba, sectors int64) (extent, int64, error) {
	if lba < 0 || lba+sectors > v.NumSectors() {
		return extent{}, 0, ErrOutOfRange
	}
	ei := lba / v.zoneSectors
	inner := lba % v.zoneSectors
	if inner+sectors > v.zoneSectors {
		return extent{}, 0, ErrExtentBoundary
	}
	e := v.extents[ei]
	return e, int64(e.zone)*v.zoneSectors + inner, nil
}

// TenantArrayAttribution ranks the hosted arrays by how implicated
// they are in the tenant's completions so far: errors first, then mean
// latency, then traffic volume. The order is deterministic run to run.
func (v *Volume) TenantArrayAttribution(tenant string) []ArrayAttribution {
	return v.eng.tenantArrayAttribution(tenant)
}

// AddTenant registers a tenant with the volume's engine.
func (v *Volume) AddTenant(cfg TenantConfig) error {
	return v.eng.addTenant(cfg)
}

// SubmitWrite issues or queues a write of data at lba on behalf of tenant
// and returns a future that resolves when the data is on the devices. data
// must not change until that future completes: the array's devices copy
// it by then, not at submit (raizn.Volume.SubmitWrite). A full tenant
// queue sheds the request with a ThrottledError.
//
// On an idle volume the write is issued to the array on the caller's
// goroutine, and the array may park there (metadata roll-over
// back-pressure). Call it from a registered simulated goroutine that holds
// no mutex — never from a Subscribe or timer callback.
func (v *Volume) SubmitWrite(tenant string, lba int64, data []byte, flags zns.Flag) (*vclock.Future, error) {
	return v.eng.submit(tenant, opWrite, lba, data, flags)
}

// SubmitRead issues or queues a read into buf from lba on behalf of
// tenant. Like SubmitWrite it may run the array on the caller's goroutine,
// under the same rule: a registered goroutine holding no mutex, never a
// Subscribe or timer callback.
func (v *Volume) SubmitRead(tenant string, lba int64, buf []byte) (*vclock.Future, error) {
	return v.eng.submit(tenant, opRead, lba, buf, 0)
}

// Write is the blocking wrapper around SubmitWrite.
func (v *Volume) Write(tenant string, lba int64, data []byte, flags zns.Flag) error {
	fut, err := v.SubmitWrite(tenant, lba, data, flags)
	if err != nil {
		return err
	}
	return fut.Wait()
}

// Read is the blocking wrapper around SubmitRead.
func (v *Volume) Read(tenant string, lba int64, buf []byte) error {
	fut, err := v.SubmitRead(tenant, lba, buf)
	if err != nil {
		return err
	}
	return fut.Wait()
}

// FinishZone seals one volume zone: in-flight IO is drained, the
// backing array zone's partial tail stripe is sealed, and the zone
// transitions to Full, returning its open-zone slot to the array.
// Open zones are a scarce ZNS resource — an array holds a handful of
// slots — so a serving stack must finish a tenant shard's zone when
// the shard goes cold or the array's budget starves other volumes.
// Writes still queued for the zone fail with the array's zone-full
// error once they are issued.
func (v *Volume) FinishZone(zone int) error {
	if zone < 0 || zone >= len(v.extents) {
		return ErrOutOfRange
	}
	v.eng.drainInflight()
	e := v.extents[zone]
	return e.arr.vol.FinishZone(e.zone)
}

// Flush persists completed writes on every array this volume spans. It
// bypasses the engine queues: a flush orders against what has already
// been issued, which is exactly the engine's in-flight set, so it first
// drains in-flight IO for this volume.
func (v *Volume) Flush() error {
	v.eng.drainInflight()
	seen := make(map[*Array]bool)
	var futs []*vclock.Future
	for _, e := range v.extents {
		if seen[e.arr] {
			continue
		}
		seen[e.arr] = true
		futs = append(futs, e.arr.vol.SubmitFlush())
	}
	return vclock.WaitAll(futs...)
}

// Close drains the engine (accepted requests still complete) and stops
// the dispatcher. Further submissions fail with ErrClosed.
func (v *Volume) Close() error {
	v.eng.close()
	return nil
}
