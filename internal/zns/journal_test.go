package zns

import (
	"testing"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// TestZoneStateOrdinals asserts the correspondence the obs package
// relies on: its device-neutral zone-state ordinals mirror ZoneState
// exactly (obs cannot import zns).
func TestZoneStateOrdinals(t *testing.T) {
	pairs := []struct {
		zns ZoneState
		obs int
	}{
		{ZoneEmpty, obs.ZoneStateEmpty},
		{ZoneOpen, obs.ZoneStateOpen},
		{ZoneClosed, obs.ZoneStateClosed},
		{ZoneFull, obs.ZoneStateFull},
	}
	for _, p := range pairs {
		if int(p.zns) != p.obs {
			t.Errorf("ordinal mismatch: zns %v = %d, obs = %d", p.zns, int(p.zns), p.obs)
		}
		if got := obs.ZoneStateName(p.obs); got != p.zns.String() {
			t.Errorf("name mismatch for ordinal %d: obs %q, zns %q", p.obs, got, p.zns.String())
		}
	}
	if obs.NumZoneStates != int(ZoneFull)+1 {
		t.Errorf("obs.NumZoneStates = %d, zns has %d states", obs.NumZoneStates, int(ZoneFull)+1)
	}
}

func TestDeviceJournalsZoneLifecycle(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		j := obs.NewJournal(c, obs.JournalConfig{})
		j.Enable()
		d.AttachJournal(j, 3)
		if d.Journal() != j {
			t.Fatal("Journal() did not return the attached journal")
		}

		// Implicit open via write, then finish, then reset.
		mustWrite(t, d, d.ZoneStart(1), pattern(cfg, 4, 1), 0)
		if err := d.FinishZone(1).Wait(); err != nil {
			t.Fatal(err)
		}
		if err := d.ResetZone(1).Wait(); err != nil {
			t.Fatal(err)
		}

		var states, finishes, resets []obs.Event
		for _, e := range j.Events() {
			if e.Src != 3 {
				t.Fatalf("event with src %d, want 3: %+v", e.Src, e)
			}
			switch e.Type {
			case obs.EvZoneState:
				states = append(states, e)
			case obs.EvZoneFinish:
				finishes = append(finishes, e)
			case obs.EvZoneReset:
				resets = append(resets, e)
			}
		}
		if len(states) == 0 {
			t.Fatal("no zone-state events")
		}
		first := states[0]
		if first.Zone != 1 || first.A != int64(ZoneOpen) || first.C != 1 || first.D != 1 {
			t.Fatalf("open event = %+v", first)
		}
		if len(finishes) != 1 || finishes[0].A != 4 {
			t.Fatalf("finish events = %+v (want one with wp_before=4)", finishes)
		}
		// Finish seals the zone without moving the write pointer, so the
		// reset still sees wp=4.
		if len(resets) != 1 || resets[0].A != 4 || resets[0].B != 1 {
			t.Fatalf("reset events = %+v (want one with wp_before=4 count=1)", resets)
		}
		// After reset, open/active are back to zero.
		if resets[0].C != 0 || resets[0].D != 0 {
			t.Fatalf("reset open/active = %d/%d, want 0/0", resets[0].C, resets[0].D)
		}
	})
}
