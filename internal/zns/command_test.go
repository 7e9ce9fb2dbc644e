package zns

import (
	"errors"
	"testing"

	"raizn/internal/vclock"
)

// rearmed returns fut ready for another command: re-armed if an earlier
// one completed it. The test goroutine is its only waiter and has returned.
func rearmed(fut *vclock.Future) *vclock.Future {
	if fut.Done() {
		fut.Rearm()
	}
	return fut
}

// listed returns the device's free command records.
func listed(d *Device) []*command {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]*command(nil), d.cmds...)
}

// TestDeviceCommandAllocGuard pins what a device command costs the host
// once warm: nothing when the caller supplies its future, the future alone
// when it passes nil. The completion is a command record from the device's
// free list (scheduleLocked); the closure and pendingIO each command
// allocated before show up here as two more. A reconstruction read adds
// its term to a reused XORRead, whose term lists keep their room. A write → reset → write cycle
// allocates nothing either: the reset hands the zone's buffer to the free
// list and keeps the zone's unflushed-extent list (a list made again after
// every reset is one more per cycle).
func TestDeviceCommandAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not comparable under the race detector")
	}
	cfg := DefaultConfig()
	cfg.ZRWASectors = 8
	data := pattern(cfg, 1, 0x3C)
	segs := [][]byte{data, data}
	buf := make([]byte, cfg.SectorSize)
	var x XORRead // a reconstruction read's job, reused as a pooled one is
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		wp := make([]int64, 4)
		next := func(z int, n int64) int64 {
			s := d.ZoneStart(z) + wp[z]
			wp[z] += n
			return s
		}
		cmds := []struct {
			name  string
			issue func(*vclock.Future) *vclock.Future
		}{
			{"Write", func(f *vclock.Future) *vclock.Future { return d.WriteSpan(nil, f, next(0, 1), data, 0) }},
			{"Writev", func(f *vclock.Future) *vclock.Future { return d.WritevSpan(nil, f, next(1, 2), segs, 0) }},
			{"Append", func(f *vclock.Future) *vclock.Future {
				_, f = d.AppendSpan(nil, f, 2, data, 0)
				return f
			}},
			{"Read", func(f *vclock.Future) *vclock.Future { return d.ReadSpan(nil, f, d.ZoneStart(0), buf) }},
			{"ReadXOR", func(f *vclock.Future) *vclock.Future {
				x.Start(buf, true)
				f = d.ReadXORSpan(nil, f, d.ZoneStart(0), &x, 0, len(buf))
				x.Seal()
				return f
			}},
			{"ZRWAWrite", func(f *vclock.Future) *vclock.Future { return d.WriteSpan(nil, f, next(3, 1), data, ZRWA) }},
		}
		own := c.NewFuture()
		for _, cmd := range cmds {
			for _, caller := range []bool{true, false} {
				got := testing.AllocsPerRun(100, func() {
					var f *vclock.Future
					if caller {
						f = rearmed(own)
					}
					if err := cmd.issue(f).Wait(); err != nil {
						t.Fatalf("%s: %v", cmd.name, err)
					}
				})
				want := 1.0 // the future the device makes
				if caller {
					want = 0
				}
				if got != want {
					t.Errorf("%s (caller future %v): %.2f allocs per command, want %.0f", cmd.name, caller, got, want)
				}
			}
		}

		const z = 5
		cycle := func() {
			for i := 0; i < 2; i++ {
				if err := d.WriteSpan(nil, rearmed(own), d.ZoneStart(z), data, 0).Wait(); err != nil {
					t.Fatal(err)
				}
				if err := d.ResetZoneSpan(nil, rearmed(own), z).Wait(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got := testing.AllocsPerRun(20, cycle); got != 0 {
			t.Errorf("write → reset → write → reset: %.2f allocs per cycle, want 0", got)
		}
	})
}

// TestCommandRecordAcrossPowerLoss follows one command record through a
// power cut and back into service: the command in flight at the cut
// completes with ErrPowerLoss and applies none of its effects, even with
// new data where its FUA would have reached; the record then carries a FUA
// write that persists as usual; and a subscriber that submits to the same
// device from inside a completion gets a record no command is using.
func TestCommandRecordAcrossPowerLoss(t *testing.T) {
	cfg := testConfig()
	data := pattern(cfg, 4, 0x5A)
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		start := d.ZoneStart(0)
		mustWrite(t, d, d.ZoneStart(1), data, 0) // leaves one record listed
		recs := listed(d)
		if len(recs) != 1 {
			t.Fatalf("%d records listed after one command, want 1", len(recs))
		}
		rec := recs[0]

		lost := d.Write(start, data, FUA)
		if len(listed(d)) != 0 {
			t.Fatal("the FUA write did not take the listed record")
		}
		d.PowerLoss(nil)
		// New unflushed data where the lost FUA would persist, written
		// through the batch path so that it takes no record.
		cmds := []Cmd{{Op: CmdWrite, Sector: start, Data: data}}
		d.SubmitBatch(cmds)
		if err := lost.Wait(); !errors.Is(err, ErrPowerLoss) {
			t.Fatalf("command in flight at the cut: %v, want ErrPowerLoss", err)
		}
		mustWait(t, "batched write", cmds[0].Fut)
		if got := d.Zone(0).PersistedWP; got != start {
			t.Fatalf("persisted WP %d after the voided FUA, want %d: its effect ran", got, start)
		}
		if recs := listed(d); len(recs) != 1 || recs[0] != rec {
			t.Fatal("the voided command's record is not back on the list")
		}

		end := start + int64(2*len(data)/cfg.SectorSize)
		mustWrite(t, d, start+int64(len(data)/cfg.SectorSize), data, FUA)
		if got := d.Zone(0).PersistedWP; got != end {
			t.Fatalf("persisted WP %d after a FUA write on the reused record, want %d", got, end)
		}
		if recs := listed(d); len(recs) != 1 || recs[0] != rec {
			t.Fatal("the FUA write did not run on the voided command's record")
		}

		// The subscriber runs inside Complete, after the record is back:
		// its command takes that record, cleared, and both outcomes hold.
		z2 := d.ZoneStart(2)
		var second *vclock.Future
		var inCallback int
		first := d.Write(z2, data, 0)
		first.Subscribe(func(err error) {
			inCallback = len(listed(d))
			second = d.Write(z2+int64(len(data)/cfg.SectorSize), data, FUA)
		})
		mustWait(t, "first write", first)
		if inCallback != 1 {
			t.Fatalf("%d records listed when the subscriber ran, want the completed command's", inCallback)
		}
		mustWait(t, "subscriber's write", second)
		if got, want := d.Zone(2).PersistedWP, z2+int64(2*len(data)/cfg.SectorSize); got != want {
			t.Fatalf("zone 2 persisted WP %d, want %d", got, want)
		}
		if n := len(listed(d)); n != 1 {
			t.Fatalf("%d records after every command completed, want 1", n)
		}
	})
}
