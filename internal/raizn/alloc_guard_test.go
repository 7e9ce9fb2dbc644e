package raizn

import (
	"runtime"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Checked-in allocs/op baselines for the SubmitWrite hot path with
// tracing disabled. The obs span plumbing threads nil span handles
// through the whole write path, and that must stay literally free: if
// one of these numbers goes up, something put an allocation (or a live
// span) on the disabled-tracing path. Lower the baseline when the write
// path genuinely improves; raise it only for a deliberate trade-off.
//
// The same numbers pin the durability ledger (ledger.go): its bookkeeping
// on the submit path is a few stores under locks the path already takes,
// so the non-FUA rows did not move when it arrived, and a FUA write in an
// all-FUA stream — no flush to issue, no predecessor to wait for — costs
// no more than the same write without the flag (less on the large row: the
// device model keeps no unflushed-extent list for data FUA persisted).
//
// The bytes column pins the write-path buffers (DESIGN.md, "Write-path
// buffers"): parity images, partial-parity frames and checksum-record
// sectors live in the pooled write state and the engines encode in place,
// so no row allocates a payload-sized buffer. A partial-parity image that
// is made, copied or re-encoded per write again shows at once: one 4 KiB
// image copy is twice the 2 KiB bound of the small rows (before the frames:
// 13 989 B/op on 4K, 37 019 on 16K). The zraid rows cover that engine's
// stride buffer and per-slot retained images the same way. The counts also
// hold completions to callbacks: a goroutine per device command or per
// write is at least two allocations each. Each row is two lower than
// before a parked Wait stopped allocating its wake-up channel and waiter
// slice (vclock's park-channel pool).
var submitWriteAllocBaseline = []struct {
	name    string
	sectors int64
	flags   zns.Flag
	zraid   bool
	allocs  int64
	bytes   int64
}{
	{"4K", 1, 0, false, 7, 2 << 10},
	{"16K", 4, 0, false, 7, 2 << 10},
	{"4-stripe", 16 * 16, 0, false, 30, 4 << 10}, // StripeUnitSectors(16) * 16
	{"4K-FUA", 1, zns.FUA, false, 7, 2 << 10},
	{"16K-FUA", 4, zns.FUA, false, 7, 2 << 10},
	{"4-stripe-FUA", 16 * 16, zns.FUA, false, 28, 4 << 10},
	{"4K-zraid", 1, 0, true, 7, 2 << 10},
	{"16K-zraid-FUA", 4, zns.FUA, true, 7, 2 << 10},
}

// TestSubmitWriteAllocGuard enforces the zero-allocation-when-disabled
// tracing property by benchmarking the write path and
// comparing allocs/op and bytes/op against the committed baseline. CI runs
// this as a dedicated non-race step; the race detector perturbs allocation
// counts, so the guard skips itself under -race.
func TestSubmitWriteAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping benchmark-backed guard in -short mode")
	}
	for _, c := range submitWriteAllocBaseline {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if c.zraid {
				cfg = zraidConfig()
			}
			r := testing.Benchmark(func(b *testing.B) {
				benchSeqWriteFlags(b, cfg, c.sectors, c.flags)
			})
			got := r.AllocsPerOp()
			switch {
			case got > c.allocs:
				t.Errorf("SubmitWrite %s: %d allocs/op, baseline %d — the disabled-tracing hot path regressed",
					c.name, got, c.allocs)
			case got < c.allocs:
				t.Logf("SubmitWrite %s: %d allocs/op beats baseline %d; consider lowering it", c.name, got, c.allocs)
			}
			if got := r.AllocedBytesPerOp(); got >= c.bytes {
				t.Errorf("SubmitWrite %s: %d B/op, bound %d — a payload-sized buffer is allocated per write",
					c.name, got, c.bytes)
			}
		})
	}
}

// TestSubmitReadNoGoroutineGuard pins the read half of callback
// completions: a healthy 64 KiB read is completed from its last sub-read's
// device callback, so a stream of them starts no goroutine — the count is
// taken with a thousand reads in flight. It was 24 allocs/op, 1 428 B/op
// with a goroutine per device command and one per read, and 14, 987 B/op
// before the read join (readJoin) became one allocation and a parked Wait
// none; what is left is the join and each device command's own.
func TestSubmitReadNoGoroutineGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping benchmark-backed guard in -short mode")
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		BenchmarkVolumeRead64K(b)
	})
	const maxAllocs, maxBytes = 7, 1000
	if got := r.AllocsPerOp(); got > maxAllocs {
		t.Errorf("64 KiB read: %d allocs/op, baseline %d", got, maxAllocs)
	}
	if got := r.AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("64 KiB read: %d B/op, baseline %d", got, maxBytes)
	}

	runVol(t, func(c *vclock.Clock, v *Volume, _ []*zns.Device) {
		mustWriteV(t, v, 0, int(v.ZoneSectors()), 0)
		before := runtime.NumGoroutine()
		futs := make([]*vclock.Future, 1000)
		for i := range futs {
			futs[i] = v.SubmitRead(int64(i)%(v.ZoneSectors()-16), make([]byte, 64<<10))
		}
		if during := runtime.NumGoroutine(); during != before {
			t.Errorf("%d goroutines with 1000 reads in flight, %d before", during, before)
		}
		if err := vclock.WaitAll(futs...); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDegradedReadAllocGuard pins reconstruction into the caller's
// buffer: the parity piece is read straight into the destination and the
// survivors into pooled scratch (read.go submitReconstruct), so a degraded
// 64 KiB read allocates plumbing only. One per-piece buffer back on the
// path would add up to 64 KiB/op (the parent of this guard: 56 KB/op).
func TestDegradedReadAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not comparable under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping benchmark-backed guard in -short mode")
	}
	const maxBytes = 8 << 10
	if got := testing.Benchmark(BenchmarkDegradedRead64K).AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("degraded 64 KiB read: %d B/op, bound %d — a data buffer is being allocated per reconstructed piece", got, maxBytes)
	}
}

// TestRecorderAllocGuard extends the write-path guard to the flight
// recorder: attaching a recorder (as every production array under
// observation does) must cost zero extra allocs/op on the non-sampled
// path. With tracing disabled — the hot-path default the baseline above
// is measured at — Begin returns nil spans and the observer is never
// consulted, so the recorder rides along for free; this guard pins that.
func TestRecorderAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping benchmark-backed guard in -short mode")
	}
	for _, c := range submitWriteAllocBaseline {
		c := c
		if c.flags != 0 || c.zraid {
			continue // the recorder is indifferent to write flags and engines
		}
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(func(b *testing.B) {
				benchSeqWriteRecorder(b, c.sectors)
			})
			got := r.AllocsPerOp()
			switch {
			case got > c.allocs:
				t.Errorf("SubmitWrite+recorder %s: %d allocs/op, tracing-disabled baseline %d — attaching a flight recorder must be free on the non-sampled path",
					c.name, got, c.allocs)
			case got < c.allocs:
				t.Logf("SubmitWrite+recorder %s: %d allocs/op beats baseline %d", c.name, got, c.allocs)
			}
		})
	}
}
