// Package ppengine holds what a RAIZN volume persists partial parity with
// beyond its own metadata log: sub-stripe ("partial") parity must be
// crash-safe before a write completes (paper §5.1). The volume's write
// path makes that one step, in one place:
//
//   - an array configured for the logged design (the paper's, and the
//     default) appends every image to the §5.1 log, one header sector
//     plus the image, in the parity metadata zone of its parity device;
//   - an array configured for the zraid design — the slot table after ZRAID
//     (ASPLOS '25), and the array's only user of a Zone Random Write Area
//     (ZRWA) — offers the image to its SlotTable (zraid.go) first. The
//     table writes it into a fixed slot at the start of one dedicated PP
//     zone per device, small enough that every slot stays inside the ZRWA
//     window: a stripe's later images overwrite its slot in place and never
//     program NAND (pp_volatile). When every slot is live, or the array is
//     degraded, Persist reports so and writes nothing, and the volume
//     appends the image to the §5.1 log as the logged design does
//     (pp_permanent). Nothing is garbage-collected.
//
// Either way a stripe's parity unit is written once, at its final
// location, when the stripe completes (or its zone is finished); partial
// parity never updates it in place. The volume does the WA accounting, the
// EvPartialParity journal event and the raizn.pp.write crash point for
// every image, wherever it went.
package ppengine

import (
	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// Append describes one partial-parity image the volume needs persisted
// before the triggering write may complete.
//
// The image travels once, in Frame: one header sector followed by the
// parity image (whole sectors, at most one stripe unit), built by the
// caller in the image's on-media layout so the log can fill in the header
// sector and hand the frame to the device as it is. The frame is lent to
// whoever persists it until the future of its write completes (until the
// persisting call returns, when there is no write): the header sector may
// be written and the frame handed to a device write as it stands, and a
// device write's payload is the device's until the command completes. The
// caller reuses the frame for its next write only after that, so nothing
// may keep it past its own command.
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
	// disabled); the image's device write is attached as its child.
	Span *obs.Span

	// Fut is the caller's future for the image's device write (nil: the
	// device allocates one). The write completes it when one is made.
	Fut *vclock.Future
}

// Record is one partial-parity image recovered by SlotTable.Scan, in the
// same shape recovery consumes logged records: the latest image per
// (zone, stripe) wins and stale generations are filtered by the caller.
type Record struct {
	Zone     int
	Stripe   int64
	StartLBA int64
	EndLBA   int64
	Gen      uint64
	Payload  []byte
}

// Stats are the partial-parity lifetime counters. A logged array derives
// the byte counters from its write-amplification categories (every
// logged PP byte is a flash write); a SlotTable tracks the
// volatile/permanent split itself.
type Stats struct {
	VolatileBytes  int64 // PP bytes superseded inside the ZRWA window (never programmed)
	PermanentBytes int64 // PP bytes programmed to NAND: every logged image
	FallbackTotal  int64 // zraid images the slot table had no room for, logged instead
	// GCRuns and GCMigrated are 0 by construction: nothing
	// garbage-collects partial parity. They stay for reports that print
	// the ZRAID artifact's gc_count.
	GCRuns     int64
	GCMigrated int64
}
