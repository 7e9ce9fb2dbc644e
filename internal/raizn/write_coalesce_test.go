package raizn

import (
	"testing"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Write-path differential tests: the coalesced three-phase write path
// against the reference model of its workloads (checkSnapshotPattern) —
// same bytes below every write pointer, racing writers, crash debris,
// degraded mode included — plus the coalescing counters
// against the traced device commands.

// devWriteSpanStats walks every retained root span and totals the
// device-write sub-spans: count is how many dev-write commands were
// traced; merged is how many sub-IOs vectored commands absorbed (a
// dev-write span carrying k scatter-gather segments saved k-1 commands),
// which must equal the CoalescedSubWrites counter when the tracer
// covered the whole workload.
func devWriteSpanStats(roots []*obs.Span) (count, merged int64) {
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Op == obs.OpDevWrite {
			count++
			if n := s.Segs(); n > 1 {
				merged += int64(n - 1)
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, s := range roots {
		walk(s)
	}
	return count, merged
}

// TestWritePathDifferentialConcurrent races one pipelined writer per
// zone and checks the outcome against the reference model, then the
// coalescing counters against the traced device commands.
func TestWritePathDifferentialConcurrent(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		tr := obs.NewTracer(c, obs.Config{})
		tr.Enable()
		cfg := DefaultConfig()
		cfg.Tracer = tr
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		runDiffWorkload(t, c, v, true, true)
		spanCount, spanMerged := devWriteSpanStats(tr.Snapshot())
		checkSnapshotPattern(t, "concurrent", v, snapshotVolume(t, v))
		st := v.Stats()

		// Flush and re-check: full persistence.
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		for z := 0; z < v.NumZones(); z++ {
			zd := v.Zone(z)
			if zd.PersistedWP != zd.WP {
				t.Errorf("zone %d: PersistedWP %d != WP %d after flush", z, zd.PersistedWP, zd.WP)
			}
		}

		if st.CoalescedSubWrites == 0 {
			t.Error("write path merged no sub-IOs")
		}
		// The traced sub-IO view must agree with the counters: segment
		// counts recorded on dev-write spans account for exactly the
		// sub-IOs the stat says were merged.
		if spanCount == 0 {
			t.Error("no dev-write spans traced")
		}
		if spanMerged != st.CoalescedSubWrites {
			t.Errorf("span segment surplus %d != CoalescedSubWrites %d", spanMerged, st.CoalescedSubWrites)
		}
	})
}

// TestWritePathDifferentialCrash cuts fixed per-device zone fills out of
// the devices mid-workload and checks the recovered state against the
// reference model, then keeps writing over the crash debris (which drives
// the §5.2 burned-prefix relocation through the coalescing submit planner)
// and checks again.
func TestWritePathDifferentialCrash(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		cfg := DefaultConfig()
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		runDiffWorkload(t, c, v, true, false)

		// Persist everything except data zone 1 on devices 1 and 2 (two
		// holes per stripe — no redundancy to repair from, so recovery
		// must truncate) and device 3's data zone 2 (single hole,
		// repairable). The truncated zone's uncut peers keep debris
		// beyond the recovered write pointer.
		for di, d := range devs {
			m := map[int]int64{}
			for z := 0; z < d.Config().NumZones; z++ {
				m[z] = d.Zone(z).WP - d.ZoneStart(z)
			}
			if (di == 1 || di == 2) && m[1] > 24 {
				m[1] = 24
			}
			if di == 3 && m[2] > 40 {
				m[2] = 40
			}
			d.PowerLossAt(m)
		}
		v2, err := Mount(c, devs, cfg)
		if err != nil {
			t.Fatalf("Mount after crash: %v", err)
		}
		checkSnapshotPattern(t, "post-crash", v2, snapshotVolume(t, v2))

		// Continue writing into every recovered zone tail.
		zs := v2.ZoneSectors()
		for z := 0; z < v2.NumZones(); z++ {
			zd := v2.Zone(z)
			if zd.State == zns.ZoneFull {
				continue
			}
			rel := zd.WP - int64(z)*zs
			n := min(int64(32), zs-rel)
			if n <= 0 {
				continue
			}
			mustWriteV(t, v2, zd.WP, int(n), 0)
		}
		after := snapshotVolume(t, v2)
		checkSnapshotPattern(t, "post-crash-write", v2, after)
		if after.relocs == 0 {
			t.Error("writing over crash debris produced no relocations; burn-split path untested")
		}
	})
}

// TestWritePathDifferentialDegradedAndScrub checks scrub on a healthy
// volume, then degraded writes and reconstructed reads against the
// reference model.
func TestWritePathDifferentialDegradedAndScrub(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		v, err := Create(c, devs, DefaultConfig())
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		runDiffWorkload(t, c, v, true, true)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}

		// Scrub every complete stripe of zone 0 while healthy.
		verified := 0
		wp := v.Zone(0).WP
		for s := int64(0); (s+1)*v.StripeSectors() <= wp; s++ {
			res, err := v.ScrubStripe(0, s)
			if err != nil {
				t.Fatalf("ScrubStripe(0, %d): %v", s, err)
			}
			if res.Mismatch {
				t.Errorf("ScrubStripe(0, %d): mismatch on healthy volume", s)
			}
			if res.Verified {
				verified++
			}
		}
		if verified == 0 {
			t.Error("scrub verified no stripes")
		}

		// Degrade and keep writing into the open zone tails.
		if err := v.FailDevice(1); err != nil {
			t.Fatalf("FailDevice: %v", err)
		}
		zs := v.ZoneSectors()
		for z := 0; z < 3; z++ {
			zd := v.Zone(z)
			rel := zd.WP - int64(z)*zs
			if rel+16 <= zs {
				mustWriteV(t, v, zd.WP, 16, 0)
			}
		}
		// The full readback reconstructs through parity.
		checkSnapshotPattern(t, "degraded", v, snapshotVolume(t, v))
		if v.Stats().DegradedReads == 0 {
			t.Error("degraded snapshot took no reconstructed reads")
		}
	})
}
