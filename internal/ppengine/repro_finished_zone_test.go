package ppengine

import (
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Repro: with PPZones=3, after the first ring advance the old head zone
// is finished but its tail slots still pass inWindowLocked; overwriting
// them issues a ZRWA write into a ZoneFull zone.
func TestReproFinishedZoneOverwrite(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		cfg := ppDevConfig()
		d := zns.NewDevice(c, cfg)
		eng, err := NewZRAID(ZRAIDConfig{
			Clock:       c,
			NumDevices:  1,
			Device:      func(int) *zns.Device { return d },
			PPZone:      func(i int) int { return i },
			PPZones:     3,
			SectorSize:  d.Config().SectorSize,
			SU:          16,
			ZoneCap:     128,
			ZRWASectors: 34,
			Charge:      func(hdr, pay int64) {},
		})
		if err != nil {
			t.Fatalf("NewZRAID: %v", err)
		}
		e := eng.(*zraidEngine)

		// Fill head zone 0 with 7 live slots (stripes 0..6).
		for s := int64(0); s < 7; s++ {
			fut, _, ok := e.Persist(mkAppend(d, 0, s, byte(s), 4))
			if !ok {
				t.Fatalf("Persist stripe %d refused", s)
			}
			if err := fut.Wait(); err != nil {
				t.Fatalf("Persist stripe %d: %v", s, err)
			}
		}
		// 8th stripe forces the ring advance: zone 0 finished, head=1.
		fut, _, ok := e.Persist(mkAppend(d, 0, 7, 7, 4))
		if !ok {
			t.Fatal("Persist stripe 7 refused")
		}
		if err := fut.Wait(); err != nil {
			t.Fatalf("Persist stripe 7: %v", err)
		}

		// Re-persist stripe 6: its slot sits at pos 102 in finished
		// zone 0, inside [wp-ZRWA, wp) by position only.
		fut, _, ok = e.Persist(mkAppend(d, 0, 6, 0xEE, 4))
		if !ok {
			t.Fatal("re-Persist refused (expected ok=true with erroring future)")
		}
		if err := fut.Wait(); err != nil {
			t.Logf("CONFIRMED: Persist future failed: %v", err)
		} else {
			t.Log("no error: write into finished zone succeeded?")
		}
	})
}
