// Crash recovery walk-through: reproduce the paper's Figure 1 scenario —
// a partial stripe write where power is lost with only a subset of the
// stripe units persisted — and watch RAIZN repair or hide the hole on
// remount (§5.1, §5.2), then relocate the colliding rewrite to a
// metadata zone.
package main

import (
	"fmt"
	"log"

	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func main() {
	clk := vclock.New()
	clk.Run(func() {
		cfg := zns.DefaultConfig()
		cfg.NumZones = 16
		cfg.ZoneSize = 1280
		cfg.ZoneCap = 1024
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(clk, cfg)
		}
		vol, err := raizn.Create(clk, devs, raizn.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		ss := vol.SectorSize()
		stripe := int(vol.StripeSectors()) // 64 sectors = 256 KiB of data

		fill := func(lba int64, n int, tag byte) []byte {
			b := make([]byte, n*ss)
			for i := range b {
				b[i] = tag ^ byte(i)
			}
			must(vol.Write(lba, b, 0))
			return b
		}

		// One complete stripe, flushed; then a partial second stripe
		// (3 of 4 stripe units written), unflushed.
		fill(0, stripe, 0xA0)
		must(vol.Flush())
		fill(int64(stripe), stripe*3/4, 0xB0)
		fmt.Printf("before crash: zone 0 WP=%d\n", vol.Zone(0).WP)

		// Power loss: keep stripe 0 everywhere, but of stripe 1 only
		// the unit on its third data device survives — too little to
		// reconstruct, exactly Figure 1's "stripe hole". The partial
		// parity log (on the parity device's metadata zone) is also
		// lost with the cache.
		keepOnly := map[int]bool{}
		for u := 0; u < 3; u++ {
			dev, _ := vol.UnitLocation(0, 1, u)
			keepOnly[dev] = u == 2
		}
		parityDev, _ := vol.UnitLocation(0, 1, 4) // unit D=4: the parity unit
		for i, d := range devs {
			cuts := map[int]int64{}
			for z := 0; z < cfg.NumZones; z++ {
				zd := d.Zone(z)
				cuts[z] = zd.WP - d.ZoneStart(z) // keep everything...
			}
			if keep, involved := keepOnly[i]; involved && !keep {
				cuts[0] = 16 // ...except stripe 1's unit on two devices
			}
			if i == parityDev {
				// Drop the unflushed partial-parity log.
				for z := 0; z < cfg.NumZones; z++ {
					if vol.PhysZoneRole(z) == "md" {
						cuts[z] = d.Zone(z).PersistedWP - d.ZoneStart(z)
					}
				}
			}
			d.PowerLossAt(cuts)
		}
		fmt.Println("power lost mid-stripe; remounting...")

		vol2, err := raizn.Mount(clk, devs, raizn.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		zd := vol2.Zone(0)
		fmt.Printf("after recovery: WP=%d (stripe 1 truncated), remapped=%v\n", zd.WP, zd.Remapped)

		// The surviving prefix reads back intact.
		buf := make([]byte, stripe*ss)
		must(vol2.Read(0, buf))
		fmt.Println("stripe 0 readable after recovery")

		// Rewriting the truncated range collides with the debris unit
		// that DID persist; RAIZN relocates those sectors to the
		// affected device's metadata zone (§5.2).
		fill2 := make([]byte, stripe*ss)
		for i := range fill2 {
			fill2[i] = 0xC0 ^ byte(i)
		}
		must(vol2.Write(int64(stripe), fill2, 0))
		fmt.Printf("rewrite succeeded; relocated fragments: %d\n", vol2.RelocationCount())

		// And everything — including the relocated range — survives
		// another clean remount.
		must(vol2.Flush())
		vol3, err := raizn.Mount(clk, devs, raizn.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		got := make([]byte, stripe*ss)
		must(vol3.Read(int64(stripe), got))
		for i := range got {
			if got[i] != fill2[i] {
				log.Fatalf("relocated data corrupted at byte %d", i)
			}
		}
		fmt.Println("relocated stripe reads back correctly after a second remount")
	})
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
