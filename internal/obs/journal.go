package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"raizn/internal/vclock"
)

// EventType classifies a journal event. Events are the state-side twin
// of spans: where a span times one request, an event records one state
// transition — a zone changing lifecycle state, the FTL collecting a
// block, the raizn layer appending metadata or entering degraded mode.
type EventType uint8

const (
	// EvZoneState: a zone changed lifecycle state.
	// A=new state (zns zone-state ordinal), B=write pointer (zone-relative),
	// C=open zones after, D=active zones after.
	EvZoneState EventType = iota
	// EvZoneReset: a zone was reset to empty.
	// A=write pointer before the reset, B=reset count after (physical) or
	// generation after (logical), C=open zones after, D=active zones after.
	EvZoneReset
	// EvZoneFinish: a zone was finished (write pointer forced to capacity).
	// A=write pointer before, C=open zones after, D=active zones after.
	EvZoneFinish
	// EvBlockAlloc: the FTL allocated an erase block for writes.
	// A=free blocks remaining after the allocation.
	EvBlockAlloc
	// EvGC: the FTL collected (and erased) one victim erase block.
	// A=victim block index, B=valid pages copied, C=cumulative host page
	// programs after, D=cumulative total flash page programs (host + GC
	// copies) after — so D/C is the device WA at this instant.
	EvGC
	// EvPartialParity: a partial-parity record was appended (§5.1).
	// A=payload bytes, B=header bytes.
	EvPartialParity
	// EvMetadataWrite: a metadata-zone record was appended (§4.3).
	// A=payload bytes, B=header bytes, C=record type ordinal.
	EvMetadataWrite
	// EvRelocation: a burned write range was relocated (§5.2).
	// A=sectors relocated, B=1 if a parity unit, 0 if data.
	EvRelocation
	// EvDegraded: the array entered (A=1) or left (A=0) degraded mode.
	// Src is the device that failed or was rebuilt.
	EvDegraded
	// EvRebuild: rebuild progress. A=zones rebuilt so far, B=total zones
	// to rebuild, C=bytes written to the replacement so far.
	EvRebuild
	// EvScrub: a scrub pass completed. A=stripes verified, B=mismatches
	// found, C=stripes repaired (data+parity), D=bytes read.
	EvScrub
	// EvDevWrite: a device accepted a write/append command — payload
	// applied and write pointer advanced; durability still pending a
	// flush or FUA completion. A=zone-relative start sector, B=sectors,
	// C=write pointer after, D=1 for a FUA write, else 0.
	EvDevWrite
	// EvDevFlush: a device flush was submitted; the write-pointer
	// snapshot taken here becomes durable when the flush completes.
	// A=flush count after.
	EvDevFlush
	// EvMetadataGC: a device's metadata log rolled over to a swap zone
	// (A=1; Zone is the old zone, B the new active zone, C the log kind:
	// 0 general, 1 partial parity), or the background reclaim of the old
	// zone ended (A=0; D=1 if it failed and the zone stayed out of the
	// pool). Foreground appends continue between the two (§4.3).
	EvMetadataGC
	numEventTypes
)

var eventNames = [numEventTypes]string{
	"zone-state", "zone-reset", "zone-finish", "block-alloc", "gc",
	"partial-parity", "metadata-write", "relocation", "degraded",
	"rebuild", "scrub", "dev-write", "dev-flush", "metadata-gc",
}

func (t EventType) String() string {
	if int(t) < len(eventNames) {
		return eventNames[t]
	}
	return "event?"
}

// Event is one journal entry. Src identifies the emitting component: a
// device index for zns/blockdev events, or SrcLogical for events at the
// raizn logical level. Zone is the zone the event concerns (-1 when not
// zone-scoped). The A–D slots carry the per-type payload documented on
// the EventType constants — fixed int64 slots keep Record allocation-free.
type Event struct {
	Seq  uint64
	T    time.Duration
	Type EventType
	Src  int16
	Zone int32
	A    int64
	B    int64
	C    int64
	D    int64
}

// SrcLogical marks events emitted at the raizn logical-volume level
// rather than by a numbered device.
const SrcLogical = -1

// Journal is a bounded, virtual-clock-timestamped event ring shared by
// every layer of one array: the zns zone state machines, the blockdev
// FTL, and the raizn volume all record into the same stream, so the
// analyzers can correlate a logical reset with the physical resets and
// GC work it caused.
//
// Recording follows the tracer's zero-cost-when-disabled discipline:
// Record on a nil or disabled journal returns after one nil check and
// one atomic load, and never allocates even when enabled — events are
// stored by value into a preallocated ring.
type Journal struct {
	clk     *vclock.Clock
	enabled atomic.Bool

	mu    sync.Mutex
	ring  []Event
	pos   int
	total uint64 // events ever recorded; total - len(ring) = dropped
}

// JournalConfig sizes a Journal.
type JournalConfig struct {
	// Capacity bounds the number of retained events. Default 4096.
	// Oldest events are overwritten.
	Capacity int
}

// NewJournal returns a disabled journal bound to the virtual clock.
func NewJournal(clk *vclock.Clock, cfg JournalConfig) *Journal {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 4096
	}
	return &Journal{clk: clk, ring: make([]Event, cfg.Capacity)}
}

// Enable turns recording on.
func (j *Journal) Enable() { j.enabled.Store(true) }

// Disable turns recording off. Retained events are kept.
func (j *Journal) Disable() { j.enabled.Store(false) }

// Enabled reports the atomic enable flag; false for a nil journal.
func (j *Journal) Enabled() bool { return j != nil && j.enabled.Load() }

// Record appends one event at the current virtual time. No-op (one nil
// check + one atomic load) on a nil or disabled journal; allocation-free
// either way.
func (j *Journal) Record(t EventType, src, zone int, a, b, c, d int64) {
	if j == nil || !j.enabled.Load() {
		return
	}
	now := j.clk.Now()
	j.mu.Lock()
	j.total++
	j.ring[j.pos] = Event{
		Seq: j.total, T: now, Type: t,
		Src: int16(src), Zone: int32(zone),
		A: a, B: b, C: c, D: d,
	}
	j.pos++
	if j.pos == len(j.ring) {
		j.pos = 0
	}
	j.mu.Unlock()
}

// Events returns the retained events oldest-first. Nil journal returns
// nil.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	n := len(j.ring)
	if j.total < uint64(n) {
		n = int(j.total)
	}
	out := make([]Event, 0, n)
	if j.total > uint64(len(j.ring)) {
		// Ring has wrapped: oldest retained event sits at pos.
		out = append(out, j.ring[j.pos:]...)
	}
	out = append(out, j.ring[:j.pos]...)
	return out
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.total < uint64(len(j.ring)) {
		return int(j.total)
	}
	return len(j.ring)
}

// Dropped returns how many events were overwritten by ring wraparound.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.total <= uint64(len(j.ring)) {
		return 0
	}
	return j.total - uint64(len(j.ring))
}

// Reset drops all retained events (the enable flag is kept).
func (j *Journal) Reset() {
	if j == nil {
		return
	}
	j.mu.Lock()
	for i := range j.ring {
		j.ring[i] = Event{}
	}
	j.pos = 0
	j.total = 0
	j.mu.Unlock()
}
