package chaos

// Built-in scenarios. "stripe-reset" is the acceptance workload: enough
// stripe writes, metadata flushes and zone lifecycle to cross every hook
// family. "composed" layers device failure, silent corruption, scrub and
// GC pressure on top — the schedule the shrinker is pointed at.
// "zraid-overflow" runs the zraid parity engine with more live partial
// stripes on one device than its slot table holds. "md-gc" rolls one
// device's partial-parity metadata log over repeatedly with foreground
// appends landing while the old zone is still being reclaimed, the last
// time pulling a half-full sibling's log along. "fua-stream" (and "fua-stream-zraid", the same ops
// on the zraid engine) is the FUA/flush path: acks that stand on FUA
// sub-IOs alone, FUA writes that must find exactly the devices earlier
// non-FUA writes left dirty, and a FUA ack in a zone reset a moment before.

import (
	"raizn/internal/raizn"
	"raizn/internal/zns"
)

func init() {
	Register(StripeReset())
	Register(Composed())
	Register(ZRAIDOverflow())
	Register(MDGC())
	Register(FUAStream())
	Register(FUAStreamZRAID())
}

// StripeReset writes across stripe boundaries, flushes, resets a zone and
// rewrites it at the next generation, and finishes another — crossing the
// write plan/compute/submit pipeline, partial-parity and checksum
// appends, device flush fan-out, the reset WAL protocol, and zone finish.
func StripeReset() *Scenario {
	return New("stripe-reset").
		Write(0, 64).   // one full stripe: data fan-out + full parity
		Write(0, 24).   // partial stripe: partial-parity log append
		WriteFUA(0, 8). // FUA: per-device flush fan-out
		Write(1, 40).
		Flush(). // metadata-flush boundary
		Write(1, 24).
		Reset(0).     // reset WAL on two devices + 5 physical resets
		Write(0, 32). // next-generation data over the reset zone
		Finish(1).    // tail parity seal + 5 physical finishes
		Maintain().
		Build()
}

// Composed is the kitchen-sink schedule: clean writes, a silently
// corrupted sector repaired by scrub, a device failure anchored mid-way
// through a write's submit phase, degraded writes and reads, metadata GC,
// and a zone reset — all crossed with power loss at every point.
func Composed() *Scenario {
	b := New("composed").
		Write(0, 64).
		Write(1, 48).
		Flush().
		Corrupt(1, 5). // dev 1, physical zone 0: hits zone 0 stripe 0 data
		Scrub(0).      // detects and repairs the rot
		Write(0, 32).  // this write's submit crossing triggers the failure
		Write(1, 16).  // degraded write
		ReadCheck(1).  // degraded read path
		Maintain().
		Reset(1).
		Write(1, 24).
		Flush()
	b.FaultAt("raizn.write.submit", 2, Fault{Kind: OpFailDevice, Dev: 2})
	return b.Build()
}

// ZRAIDOverflow runs the zraid parity engine's slot table past its width
// under the crash explorer. The three data zones are positioned so their
// tail stripes all map their parity to device 4 (stripe indices 5, 4, 3:
// (z+s)%5 == 0), then small interleaved appends keep three partial-parity
// images live against a two-slot ZRWA window: zones 0 and 1 overwrite
// their slots in place, and every round's third image, zone 2's, overflows
// to device 4's parity log (a raizn.pp.write crossing in a metadata zone).
// The tail covers slot death (stripes closing), a Maintain, a zone reset's
// slot sweep and a finish.
func ZRAIDOverflow() *Scenario {
	dc := zns.DefaultConfig()
	dc.NumZones = 8
	dc.ZoneSize = 160
	dc.ZoneCap = 128
	dc.MaxOpenZones = 8
	dc.MaxActiveZones = 10
	dc.ZRWASectors = 34 // a table of two 17-sector PP slots
	vc := raizn.Config{
		StripeUnitSectors: 16,
		ParityEngine:      raizn.EngineZRAID,
	}
	b := New("zraid-overflow").Devices(5, dc).Volume(vc).
		Write(0, 320). // zone 0 at stripe 5
		Write(1, 256). // zone 1 at stripe 4
		Write(2, 192). // zone 2 at stripe 3
		Flush()
	// Seven interleaved rounds of 8-sector appends: 21 partial-parity
	// persists on device 4, seven of them overflowing to its log.
	for i := 0; i < 7; i++ {
		b.Write(0, 8).Write(1, 8).Write(2, 8)
	}
	return b.Flush().
		Write(0, 8). // eighth append: the stripes complete, slots die
		Write(1, 8).
		Write(2, 8).
		Maintain(). // metadata GC: rolls the logs holding the overflow records
		Reset(2).   // reset WAL + the engine's per-zone slot sweep
		Write(2, 64).
		Finish(1).
		Flush().
		Build()
}

// MDGC runs the metadata-zone roll-over (raizn.mdgc.* crash points) under
// the crash explorer with the logged engine. As in ZRAIDOverflow, data zones
// sit at the stripes whose parity maps to device 4, so every small append
// logs a nine-sector partial-parity record into that device's 128-sector
// parity metadata zone: three zones' tail stripes fill and roll it over
// once, then two more zones' stripes roll it over twice more. Beside the
// second pair, zone 0 — at a stripe whose parity maps to device 3 by then —
// takes seven 9-sector appends, which leave device 3's parity log just
// over half full when device 4's rolls the last time: the roll-over is
// array-wide, device 3 rolls at the same instant, and crashes land with
// two devices mid-roll. The roll-over itself takes no time; its background
// half (the checkpoint durable by its last record's FUA, then the old
// zone's reset) spans the next append or two, so crashes land with
// foreground records behind the checkpoint and no empty metadata zone —
// the state in which the mount's roll-over checkpoints in place. The tail covers a Maintain-driven
// roll-over of every log on every device, a reset, and a finish.
func MDGC() *Scenario {
	dc := zns.DefaultConfig()
	dc.NumZones = 8
	dc.ZoneSize = 160
	dc.ZoneCap = 128
	dc.MaxOpenZones = 8
	dc.MaxActiveZones = 10
	vc := raizn.Config{StripeUnitSectors: 16}
	b := New("md-gc").Devices(5, dc).Volume(vc).
		Write(0, 320). // zone 0 at stripe 5
		Write(1, 256). // zone 1 at stripe 4
		Write(2, 192). // zone 2 at stripe 3
		Flush()
	for i := 0; i < 7; i++ {
		b.Write(0, 8).Write(1, 8).Write(2, 8)
	}
	b.Flush().
		Write(0, 8). // eighth append: the stripes complete
		Write(1, 8).
		Write(2, 8).
		Write(3, 128). // zone 3 at stripe 2
		Write(4, 64)   // zone 4 at stripe 1
	for i := 0; i < 7; i++ {
		b.Write(0, 9).Write(3, 8).Write(4, 8) // zone 0 at stripe 6: parity on device 3
	}
	b.Maintain(). // rolls every log over and waits for each reclaim
			Reset(2).
			Write(2, 64).
			Finish(1).
			Flush()
	return b.Build()
}

// fuaStreamOps is the FUA/flush-path schedule. Its first half is an
// all-FUA stream — inside a unit, to a unit's end, completing a stripe
// (full parity + checksum row), across a stripe boundary — which the
// durability ledger serves without a single flush, so under the flushed
// power-loss variant every ack must be carried by FUA sub-IOs (data,
// parity, partial parity, checksums). The second half interleaves FUA and
// non-FUA writes over two zones: a FUA write then flushes the devices its
// own zone left dirty (and only joins what the other zone's writer has in
// flight), a Flush in the middle resets the picture, and a Finish takes
// the same path for what the device finishes do not persist. The tail
// resets a zone holding unflushed data and acks a FUA write in its next
// generation with no flush in between: the ack stands only if the reset's
// generation counter reached media before it (mount would otherwise find
// the reset WAL current and finish the reset over the new data).
func fuaStreamOps(b *Builder) *Builder {
	return b.
		WriteFUA(0, 4).
		WriteFUA(0, 12). // unit 0 complete
		WriteFUA(0, 48). // stripe 0 complete
		WriteFUA(0, 70). // stripe 1 complete, 6 sectors into stripe 2
		Write(1, 20).
		WriteFUA(0, 6). // zone 0 is clean; zone 1's dirt is not its business
		Write(1, 30).
		WriteFUA(1, 14). // completes zone 1's stripe 0 over non-FUA units
		Write(0, 24).
		Write(1, 8).
		WriteFUA(0, 16).
		Flush().
		WriteFUA(1, 5). // after a flush: nothing to do
		Write(0, 40).
		WriteFUA(1, 51).
		Write(1, 9).
		Finish(1).
		Reset(0).
		Write(0, 15).
		WriteFUA(0, 2)
}

// FUAStream runs fuaStreamOps on the paper's partial-parity log.
func FUAStream() *Scenario { return fuaStreamOps(New("fua-stream")).Build() }

// FUAStreamZRAID runs fuaStreamOps on the zraid engine, whose
// partial-parity slots are overwritten in place through the ZRWA: a FUA
// slot write persists its pool zone only up to the slot's end.
func FUAStreamZRAID() *Scenario {
	b := New("fua-stream-zraid")
	b.s.Dev.ZRWASectors = 34 // a table of two 17-sector PP slots
	b.s.Vol.ParityEngine = raizn.EngineZRAID
	return fuaStreamOps(b).Build()
}
