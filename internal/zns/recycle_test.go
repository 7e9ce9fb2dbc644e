package zns

import (
	"bytes"
	"runtime"
	"testing"

	"raizn/internal/vclock"
)

// Zone backing buffers are recycled unzeroed (zoneBufLocked), so these
// tests pin the invariant that makes it sound: nothing at or above a
// write pointer is ever readable.

// mustWait fails the test unless the command completed without error.
func mustWait(t *testing.T, what string, fut *vclock.Future) {
	t.Helper()
	if err := fut.Wait(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// readZone reads zone z whole through the copying path.
func readZone(t *testing.T, d *Device, z int) []byte {
	t.Helper()
	buf := make([]byte, d.cfg.ZoneCap*int64(d.cfg.SectorSize))
	mustWait(t, "read whole zone", d.Read(d.ZoneStart(z), buf))
	return buf
}

// TestRecycledBufferShowsNoOldPayload fills zone 0 with pattern A, resets
// it, lets zone 1 take the recycled buffer for a short prefix B and checks
// that the rest of zone 1 never reads as A: not after a finish, not after a
// power cut inside B, not in a crash clone, not around a ZRWA overwrite.
func TestRecycledBufferShowsNoOldPayload(t *testing.T) {
	const nB, cut = 5, 3
	cfg := testConfig()
	cfg.ZRWASectors = 8
	ss := cfg.SectorSize
	a := pattern(cfg, int(cfg.ZoneCap), 0xA5)
	b := pattern(cfg, nB, 0x3C)
	c2 := pattern(cfg, 2, 0x77)

	// want returns the expected whole-zone image: content, then zeroes.
	want := func(content ...[]byte) []byte {
		out := make([]byte, 0, len(a))
		for _, p := range content {
			out = append(out, p...)
		}
		return append(out, make([]byte, len(a)-len(out))...)
	}

	for _, tc := range []struct {
		name string
		// after runs once B is in zone 1 and returns the device to finish
		// and read, with the zone image expected from it.
		after func(t *testing.T, d *Device) (*Device, []byte)
	}{
		{"finish", func(t *testing.T, d *Device) (*Device, []byte) {
			return d, want(b)
		}},
		{"power-loss-inside-B", func(t *testing.T, d *Device) (*Device, []byte) {
			d.PowerLossAt(map[int]int64{1: cut})
			if err := d.Read(d.ZoneStart(1), make([]byte, nB*ss)).Wait(); err != ErrReadBeyondWP {
				t.Fatalf("read of the cut-off sectors = %v, want ErrReadBeyondWP", err)
			}
			return d, want(b[:cut*ss])
		}},
		{"crash-clone", func(t *testing.T, d *Device) (*Device, []byte) {
			return d.CrashClone(nil, nil, map[int]int64{1: cut}), want(b[:cut*ss])
		}},
		{"zrwa-overwrite", func(t *testing.T, d *Device) (*Device, []byte) {
			mustWait(t, "zrwa overwrite", d.Write(d.ZoneStart(1)+2, c2, ZRWA))
			return d, want(b[:2*ss], c2, b[4*ss:])
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run(t, cfg, func(_ *vclock.Clock, d *Device) {
				mustWait(t, "fill zone 0", d.Write(0, a, 0))
				old := &d.zones[0].data[0]
				mustWait(t, "reset zone 0", d.ResetZone(0))
				if len(d.freeBufs) != 1 {
					t.Fatalf("%d buffers on the free list after the reset, want 1", len(d.freeBufs))
				}
				mustWait(t, "write B", d.Write(d.ZoneStart(1), b, ZRWA))
				if &d.zones[1].data[0] != old {
					t.Fatal("zone 1 did not take the recycled buffer: the test would prove nothing")
				}

				d, wantZone := tc.after(t, d)
				mustWait(t, "finish zone 1", d.FinishZone(1))
				if got := readZone(t, d, 1); !bytes.Equal(got, wantZone) {
					i := 0
					for got[i] == wantZone[i] {
						i++
					}
					t.Fatalf("zone 1 differs from %q at byte %d (sector %d): got %#x, want %#x, pattern A has %#x",
						tc.name, i, i/ss, got[i], wantZone[i], a[i])
				}
				// The zone's own old payload is as unreadable as another's.
				mustWait(t, "reset zone 1", d.ResetZone(1))
				mustWait(t, "rewrite zone 1", d.Write(d.ZoneStart(1), c2, 0))
				mustWait(t, "finish zone 1 again", d.FinishZone(1))
				if got := readZone(t, d, 1); !bytes.Equal(got, want(c2)) {
					t.Fatal("zone 1 shows its own pre-reset payload above the write pointer")
				}
			})
		})
	}
}

// TestFreeListBoundedByZones resets and refills every zone several times:
// buffers in zones plus buffers listed never exceed NumZones, and after the
// first round no new buffer is made.
func TestFreeListBoundedByZones(t *testing.T) {
	cfg := testConfig()
	data := pattern(cfg, 1, 1)
	run(t, cfg, func(_ *vclock.Clock, d *Device) {
		seen := map[*byte]bool{}
		for round := 0; round < 3; round++ {
			for z := 0; z < cfg.NumZones; z++ {
				mustWait(t, "write", d.Write(d.ZoneStart(z), data, 0))
				if p := &d.zones[z].data[0]; !seen[p] {
					if round > 0 {
						t.Fatalf("round %d made a new buffer for zone %d", round, z)
					}
					seen[p] = true
				}
				mustWait(t, "finish", d.FinishZone(z)) // stay under the open-zone limit
			}
			for z := 0; z < cfg.NumZones; z++ {
				mustWait(t, "reset", d.ResetZone(z))
				mustWait(t, "reset of an empty zone", d.ResetZone(z))
			}
			if len(d.freeBufs) != cfg.NumZones {
				t.Fatalf("round %d: %d buffers listed, want %d", round, len(d.freeBufs), cfg.NumZones)
			}
		}
	})
}

// allocated returns the heap bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestZoneBufferAllocGuard pins the cost of a write → reset → write cycle
// at the default geometry (4 MiB zones): the first cycle makes the zone's
// buffer once, every later cycle allocates command plumbing only (future,
// completion closure, clock event: about 0.6 KiB per command, bounded here
// at 1 KiB), and a DiscardData device never makes a buffer at all.
func TestZoneBufferAllocGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not comparable under the race detector")
	}
	const plumbing = 4 << 10 // four commands per cycle
	for _, discard := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.DiscardData = discard
		zoneBytes := uint64(cfg.ZoneCap) * uint64(cfg.SectorSize)
		data := make([]byte, cfg.SectorSize)
		run(t, cfg, func(_ *vclock.Clock, d *Device) {
			cycle := func() {
				mustWait(t, "write", d.Write(0, data, 0))
				mustWait(t, "reset", d.ResetZone(0))
				mustWait(t, "write", d.Write(0, data, 0))
				mustWait(t, "reset", d.ResetZone(0))
			}
			first, second := allocated(cycle), allocated(cycle)
			t.Logf("DiscardData=%v: first cycle %d B, second cycle %d B", discard, first, second)
			if second >= plumbing {
				t.Errorf("DiscardData=%v: second cycle allocated %d B, want < %d: a zone buffer (%d B) is being made or zeroed again",
					discard, second, plumbing, zoneBytes)
			}
			switch {
			case discard && first >= plumbing:
				t.Errorf("DiscardData device allocated %d B in its first cycle, want < %d", first, plumbing)
			case !discard && (first < zoneBytes || first >= 2*zoneBytes):
				t.Errorf("first cycle allocated %d B, want one zone buffer (%d B)", first, zoneBytes)
			}
		})
	}
}

// TestNewZoneDoesNotDrainFreeList is the pool's growth rule. A pair of log
// zones rolled over (write the empty one, then reset the full one) beside
// data zones that open one by one allocates only while new zones appear:
// the roll-overs after the last of them, with every other zone holding a
// buffer, find the one the roll-over before returned instead of making one
// at whatever moment the log fills. And a walk over fresh zones that resets
// each zone it leaves stays on two buffers.
func TestNewZoneDoesNotDrainFreeList(t *testing.T) {
	cfg := testConfig()
	cfg.MaxOpenZones, cfg.MaxActiveZones = cfg.NumZones, cfg.NumZones
	data := pattern(cfg, 1, 1)
	// buffers counts the distinct buffers the device has made so far.
	buffers := func(d *Device, seen map[*byte]bool) int {
		for z := range d.zones {
			if d.zones[z].data != nil {
				seen[&d.zones[z].data[0]] = true
			}
		}
		for _, b := range d.freeBufs {
			seen[&b[0]] = true
		}
		return len(seen)
	}

	run(t, cfg, func(_ *vclock.Clock, d *Device) {
		seen := map[*byte]bool{}
		logA, logB := cfg.NumZones-2, cfg.NumZones-1
		roll := func() {
			t.Helper()
			mustWait(t, "write the new log", d.Write(d.ZoneStart(logB), data, 0))
			mustWait(t, "reset the old log", d.ResetZone(logA))
			logA, logB = logB, logA
		}
		mustWait(t, "write the log", d.Write(d.ZoneStart(logA), data, 0))
		const dataZones = 4
		for z := 0; z < dataZones; z++ {
			roll()
			// New to the device, and what the roll-over returned is listed.
			mustWait(t, "open a data zone", d.Write(d.ZoneStart(z), data, 0))
			if len(d.freeBufs) != 1 {
				t.Fatalf("data zone %d left %d buffers listed, want the log's spare", z, len(d.freeBufs))
			}
		}
		grown := buffers(d, seen)
		if grown != dataZones+2 {
			t.Fatalf("%d buffers for %d data zones and two log zones", grown, dataZones)
		}
		for i := 0; i < 3; i++ {
			roll()
		}
		if n := buffers(d, seen); n != grown {
			t.Errorf("roll-overs after the last new zone made %d more buffers", n-grown)
		}
	})

	run(t, cfg, func(_ *vclock.Clock, d *Device) {
		seen := map[*byte]bool{}
		for z := 0; z < cfg.NumZones; z++ {
			if z > 0 {
				mustWait(t, "reset", d.ResetZone(z-1))
			}
			mustWait(t, "write", d.Write(d.ZoneStart(z), data, 0))
		}
		if n := buffers(d, seen); n != 2 {
			t.Errorf("a walk over %d fresh zones, one written at a time, made %d buffers, want 2", cfg.NumZones, n)
		}
	})
}
