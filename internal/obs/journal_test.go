package obs

import (
	"strings"
	"testing"
	"time"

	"raizn/internal/vclock"
)

func TestJournalDisabledAndNil(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		var nilJ *Journal
		if nilJ.Enabled() {
			t.Fatal("nil journal reports enabled")
		}
		nilJ.Record(EvZoneState, 0, 0, 1, 2, 3, 4) // must not panic
		if nilJ.Events() != nil || nilJ.Len() != 0 || nilJ.Dropped() != 0 {
			t.Fatal("nil journal retained events")
		}
		nilJ.Reset()

		j := NewJournal(clk, JournalConfig{})
		if j.Enabled() {
			t.Fatal("new journal should start disabled")
		}
		j.Record(EvZoneState, 0, 0, 1, 2, 3, 4)
		if j.Len() != 0 {
			t.Fatal("disabled journal recorded an event")
		}
	})
}

func TestJournalDisabledRecordAllocatesNothing(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		var nilJ *Journal
		j := NewJournal(clk, JournalConfig{Capacity: 8})
		allocs := testing.AllocsPerRun(100, func() {
			nilJ.Record(EvGC, 1, -1, 5, 6, 7, 8)
			j.Record(EvGC, 1, -1, 5, 6, 7, 8)
		})
		if allocs != 0 {
			t.Fatalf("disabled Record allocated %.1f per op, want 0", allocs)
		}
		// Enabled recording must also be allocation-free: events are
		// stored by value into the preallocated ring.
		j.Enable()
		allocs = testing.AllocsPerRun(100, func() {
			j.Record(EvGC, 1, -1, 5, 6, 7, 8)
		})
		if allocs != 0 {
			t.Fatalf("enabled Record allocated %.1f per op, want 0", allocs)
		}
	})
}

func TestJournalRingWraparound(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		j := NewJournal(clk, JournalConfig{Capacity: 4})
		j.Enable()
		for i := int64(0); i < 10; i++ {
			j.Record(EvBlockAlloc, 0, -1, i, 0, 0, 0)
		}
		if j.Len() != 4 {
			t.Fatalf("Len = %d, want 4", j.Len())
		}
		if j.Dropped() != 6 {
			t.Fatalf("Dropped = %d, want 6", j.Dropped())
		}
		evs := j.Events()
		if len(evs) != 4 {
			t.Fatalf("Events returned %d, want 4", len(evs))
		}
		// Oldest-first: the retained events are A=6..9, Seq=7..10.
		for i, e := range evs {
			if e.A != int64(6+i) || e.Seq != uint64(7+i) {
				t.Fatalf("event %d = {Seq %d A %d}, want {Seq %d A %d}",
					i, e.Seq, e.A, 7+i, 6+i)
			}
		}
		j.Reset()
		if j.Len() != 0 || j.Dropped() != 0 || len(j.Events()) != 0 {
			t.Fatal("Reset did not clear the ring")
		}
		if !j.Enabled() {
			t.Fatal("Reset cleared the enable flag")
		}
	})
}

func TestJournalTimestampsAndJSON(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		j := NewJournal(clk, JournalConfig{Capacity: 16})
		j.Enable()
		j.Record(EvZoneState, SrcLogical, 3, int64(ZoneStateOpen), 40, 1, 1)
		clk.Sleep(5 * time.Millisecond)
		j.Record(EvGC, 2, -1, 7, 12, 100, 130)
		evs := j.Events()
		if len(evs) != 2 {
			t.Fatalf("got %d events", len(evs))
		}
		if evs[1].T-evs[0].T != 5*time.Millisecond {
			t.Fatalf("timestamps %v, %v: want 5ms apart", evs[0].T, evs[1].T)
		}
	})
}

func TestOccupancyAndLifetimes(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		j := NewJournal(clk, JournalConfig{})
		j.Enable()
		// z0: open at t=0, finish at t=10ms; z1: open at 10ms, reset at 30ms.
		j.Record(EvZoneState, SrcLogical, 0, int64(ZoneStateOpen), 0, 1, 1)
		clk.Sleep(10 * time.Millisecond)
		j.Record(EvZoneFinish, SrcLogical, 0, 100, 0, 0, 0)
		j.Record(EvZoneState, SrcLogical, 1, int64(ZoneStateOpen), 0, 1, 1)
		clk.Sleep(20 * time.Millisecond)
		j.Record(EvZoneReset, SrcLogical, 1, 50, 1, 0, 0)
		// Different source must be ignored.
		j.Record(EvZoneState, 2, 1, int64(ZoneStateOpen), 0, 9, 9)
		clk.Sleep(10 * time.Millisecond)

		evs := j.Events()
		open, active := OccupancyTimeline(evs, SrcLogical)
		if len(open) != 4 || len(active) != 4 {
			t.Fatalf("occupancy points = %d/%d, want 4/4", len(open), len(active))
		}
		if open[0].Depth != 1 || open[1].Depth != 0 || open[2].Depth != 1 || open[3].Depth != 0 {
			t.Fatalf("open depths = %+v", open)
		}

		lives := ZoneLifetimes(evs, SrcLogical, clk.Now())
		if len(lives) != 2 {
			t.Fatalf("lifetimes for %d zones, want 2", len(lives))
		}
		z0, z1 := lives[0], lives[1]
		if z0.Zone != 0 || z0.Finishes != 1 || z0.Resets != 0 {
			t.Fatalf("z0 = %+v", z0)
		}
		if z0.InState[ZoneStateOpen] != 10*time.Millisecond {
			t.Fatalf("z0 open time = %v", z0.InState[ZoneStateOpen])
		}
		if z0.InState[ZoneStateFull] != 30*time.Millisecond {
			t.Fatalf("z0 full time = %v", z0.InState[ZoneStateFull])
		}
		if z1.Zone != 1 || z1.Resets != 1 || z1.InState[ZoneStateOpen] != 20*time.Millisecond {
			t.Fatalf("z1 = %+v", z1)
		}
		if z1.InState[ZoneStateEmpty] != 10*time.Millisecond+10*time.Millisecond {
			t.Fatalf("z1 empty time = %v", z1.InState[ZoneStateEmpty])
		}
	})
}

func TestZoneHeatmapRendering(t *testing.T) {
	rows := []ZoneRow{{
		Label: "logical",
		Zones: []ZoneInfo{
			{Index: 0, State: ZoneStateEmpty, Cap: 100},
			{Index: 1, State: ZoneStateOpen, WP: 25, Cap: 100},
			{Index: 2, State: ZoneStateOpen, WP: 95, Cap: 100},
			{Index: 3, State: ZoneStateClosed, WP: 10, Cap: 100},
			{Index: 4, State: ZoneStateFull, WP: 100, Cap: 100},
			{Index: 5, State: ZoneStateOpen, WP: 0, Cap: 100},
		},
	}}
	var sb strings.Builder
	WriteZoneHeatmap(&sb, rows)
	if !strings.Contains(sb.String(), "logical  .3=cF0") {
		t.Fatalf("heatmap cells wrong:\n%s", sb.String())
	}
}

func TestWAReportMath(t *testing.T) {
	rep := &WAReport{
		UserBytes: 1000,
		Categories: []WACategory{
			{Name: "data", Bytes: 1000},
			{Name: "parity", Bytes: 400},
			{Name: "metadata", Bytes: 100},
		},
		Devices: []WADevice{
			{Name: "dev0", HostBytes: 800, FlashBytes: 1200},
			{Name: "dev1", HostBytes: 700},
		},
	}
	if rep.RaiznBytes() != 1500 || rep.DeviceHostBytes() != 1500 || rep.FlashBytes() != 1200 {
		t.Fatalf("sums = %d/%d/%d", rep.RaiznBytes(), rep.DeviceHostBytes(), rep.FlashBytes())
	}
	var sb strings.Builder
	rep.Write(&sb)
	out := sb.String()
	for _, want := range []string{"1.500x vs user", "flash programs", "device WA"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
