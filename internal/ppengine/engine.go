// Package ppengine defines the parity-persistence engine: the pluggable
// mechanism a RAIZN volume uses to make sub-stripe ("partial") parity
// crash-safe before a write completes (paper §5.1). Two engines exist:
//
//   - logged: the paper's design and the default. Partial parity is
//     appended as log records (one header sector + the image) to the
//     dedicated parity metadata zone, needing no optional device
//     feature. Implemented inside package raizn as an adapter over its
//     metadata manager.
//   - zraid: the slot design from ZRAID (ASPLOS '25) for devices with a
//     Zone Random Write Area (ZRWA), and the array's only user of one.
//     Partial parity is written into a fixed table of slots at the start
//     of one dedicated PP zone per device, small enough that every slot
//     stays inside the ZRWA window: a stripe's later images overwrite its
//     slot in place and never program NAND (pp_volatile). An image that
//     finds every slot live is appended to the §5.1 log instead
//     (pp_permanent). Nothing is garbage-collected. Implemented in this
//     package (zraid.go).
//
// Either way a stripe's parity unit is written once, at its final
// location, when the stripe completes (or its zone is finished); no engine
// updates it in place. The volume talks to whichever engine
// Config.ParityEngine selected through the Engine interface below; the
// write pipeline, recovery and the write-amplification accounting are
// engine-agnostic.
package ppengine

import (
	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// Kind identifies a parity-persistence engine implementation.
type Kind int

const (
	// Logged is the paper's partial-parity logging design (§5.1).
	Logged Kind = iota
	// ZRAID is the fixed slot table inside a PP zone's ZRWA.
	ZRAID
)

func (k Kind) String() string {
	switch k {
	case Logged:
		return "logged"
	case ZRAID:
		return "zraid"
	default:
		return "unknown"
	}
}

// Append describes one partial-parity image the volume needs persisted
// before the triggering write may complete.
//
// The image travels once, in Frame: one header sector followed by the
// parity image (whole sectors, at most one stripe unit), built by the
// caller in the image's on-media layout so an engine that logs it can
// fill in the header sector and hand the frame to the device as it is.
// The frame is lent to the engine until the future Persist returns
// completes (until Persist returns, when that future is nil): the engine
// may write the header sector and may hand the frame to a device write as
// it stands, and a device write's payload is the device's until the
// command completes. The caller reuses the frame for its next write only
// after that, so an engine must not keep it past its own command.
type Append struct {
	Dev      int   // device that will hold the stripe's parity unit
	Zone     int   // logical zone
	Stripe   int64 // zone-relative stripe index
	StartLBA int64 // logical range the image covers
	EndLBA   int64
	Gen      uint64 // generation of the logical zone at persist time
	Frame    []byte // header sector + parity image; see above
	Flags    int    // zns.Flag bits of the triggering write

	// Span is the request's root tracing span (nil while tracing is
	// disabled); engines attach their device sub-IOs as children.
	Span *obs.Span

	// Fut is the caller's future for the image's device write (nil: the
	// device allocates one). Persist completes it when it returns a
	// non-nil future.
	Fut *vclock.Future
}

// Record is one partial-parity image recovered by Scan, in the same
// shape recovery consumes logged records: the latest image per
// (zone, stripe) wins and stale generations are filtered by the caller.
type Record struct {
	Zone     int
	Stripe   int64
	StartLBA int64
	EndLBA   int64
	Gen      uint64
	Payload  []byte
}

// Stats are the engine's lifetime counters. For the logged engine the
// volume derives the byte counters from its write-amplification
// categories (every logged PP byte is a flash write); the zraid engine
// tracks the volatile/permanent split here.
type Stats struct {
	VolatileBytes  int64 // PP bytes superseded inside the ZRWA window (never programmed)
	PermanentBytes int64 // PP bytes programmed to NAND: every logged image
	FallbackTotal  int64 // zraid images the slot table had no room for, logged instead
	// GCRuns and GCMigrated are 0 by construction: no engine
	// garbage-collects partial parity. They stay for reports that print
	// the ZRAID artifact's gc_count.
	GCRuns     int64
	GCMigrated int64
}

// Engine is the parity-persistence mechanism a volume plugs into its
// write pipeline, recovery and maintenance paths. Implementations must
// be safe for concurrent use; methods are called with no volume or zone
// locks that the engine could need held.
type Engine interface {
	// Kind identifies the implementation.
	Kind() Kind

	// Persist makes the partial-parity image crash-safe and returns the
	// completion future the triggering write must wait on (nil when the
	// engine had nothing to submit, e.g. a degraded parity device)
	// together with the absolute device sector one past the image's last
	// written sector, which tells the volume's durability ledger which
	// physical zone the write landed in and how far. a.Frame is the
	// engine's until fut completes and must not be retained past it (see
	// Append).
	Persist(a Append) (fut *vclock.Future, end int64)

	// StripeClosed tells the engine stripe s of logical zone z reached
	// full parity on media; any PP state for it is dead and reclaimable.
	StripeClosed(zone int, stripe int64)

	// ZoneReset tells the engine logical zone z was reset; all PP state
	// for the zone is dead.
	ZoneReset(zone int)

	// Scan returns every decodable partial-parity image the engine
	// persisted, for recovery replay. Torn images are dropped; when
	// several images exist for one (zone, stripe) the newest is
	// returned. The logged engine returns nil: its records surface
	// through the ordinary metadata-zone scan.
	Scan() ([]Record, error)

	// Stats returns the engine's lifetime counters.
	Stats() Stats

	// Format discards all engine persistence state (resetting the PP
	// zones for zraid). Called once after mount-time recovery has replayed and
	// re-checkpointed everything live, so the engine starts fresh.
	Format() error
}
