package bench

import (
	"fmt"
	"io"

	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// runTable1 instantiates a volume with the paper's exact geometry (data
// payloads discarded, so the multi-terabyte address space costs nothing)
// and prints the metadata footprint beside the paper's figures.
func runTable1(w io.Writer, quick bool) error {
	cfg := zns.DefaultConfig()
	cfg.DiscardData = true
	cfg.ZoneCap = 1077 * 256 // 1077 MiB in 4 KiB sectors
	cfg.ZoneSize = 2048 * 256
	cfg.NumZones = 16
	if !quick {
		cfg.NumZones = 64
	}

	var fp raizn.MetadataFootprint
	clk := vclock.New()
	clk.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(clk, cfg)
		}
		v, err := raizn.Create(clk, devs, raizn.DefaultConfig())
		if err != nil {
			panic(err)
		}
		fp = v.Footprint()
	})

	kb := func(b int64) string {
		if b%1024 == 0 {
			return fmt.Sprintf("%d KiB", b/1024)
		}
		return fmt.Sprintf("%d B", b)
	}
	t := newTable(w, "metadata type", "persistent location", "storage per update", "memory footprint")
	t.row("remapped stripe unit", "affected device only",
		fmt.Sprintf("%s (header) + %s (unit)", kb(int64(fp.HeaderBytes)), kb(fp.StripeUnitBytes)),
		fmt.Sprintf("%s + %s cached", kb(int64(fp.HeaderBytes)), kb(fp.StripeUnitBytes)))
	t.row("zone reset log", "2 devices (rotated)", kb(fp.ZoneResetLogStorage), "-")
	t.row("generation counters", "all devices", kb(fp.GenCounterStorage),
		fmt.Sprintf("%.2f B per logical zone", fp.GenCounterMemPerZone))
	t.row("partial parity", "device with parity",
		fmt.Sprintf("%s (header) + <=%s", kb(int64(fp.HeaderBytes)), kb(fp.StripeUnitBytes)), "-")
	t.row("superblock", "all devices", kb(fp.SuperblockStorage), kb(fp.SuperblockStorage))
	t.row("stripe buffers", "-", "-",
		fmt.Sprintf("(%s + %d B) x %d per open zone", kb(fp.StripeUnitBytes), fp.StripeBufferBytes-fp.StripeUnitBytes, fp.StripeBuffersPerZone))
	t.row("persistence bitmaps", "-", "-", fmt.Sprintf("%s per logical zone", kb(fp.PersistBitmapPerZone)))
	t.row("zone descriptors", "-", "-", fmt.Sprintf("%d B per zone per device + per logical zone", fp.ZoneDescriptorBytes))

	fmt.Fprintf(w, "\ngeometry: %d devices (%d data + 1 parity per stripe), stripe unit %s, physical zone %d MiB, logical zone %d MiB\n",
		fp.Devices, fp.DataDevices, kb(fp.StripeUnitBytes), fp.PhysZoneCapBytes>>20, fp.LogicalZoneBytes>>20)
	fmt.Fprintln(w, "paper: header 4 KiB, remapped unit 4+64 KiB, reset log 4 KiB (all devices), gen counters 8.05 B/zone,")
	fmt.Fprintln(w, "partial parity 4 KiB + <=64 KiB, superblock 4 KiB, stripe buffers 320 KiB x 8/open zone (incl. parity slot;")
	fmt.Fprintln(w, "this implementation keeps only that slot, a running parity, and D unit CRCs), persistence bitmap ~2 KiB/zone, descriptors 64 B.")
	return nil
}
