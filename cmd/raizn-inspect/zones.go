package main

import (
	"fmt"
	"os"
	"sort"

	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// runZones renders the zone-state observability report: a logical +
// per-device heatmap, the open/active occupancy timeline, per-zone
// lifetime stats, the layered write-amplification report, and an
// event-mix summary of the journal. The journal was enabled before the
// first write, so lifetime accounting is exact, and everything runs on
// the virtual clock — the output is bit-identical across runs.
func runZones(vol *raizn.Volume, devs []*zns.Device, clk *vclock.Clock, jrn *obs.Journal, fillZones int) {
	// Exercise the rest of the zone lifecycle so the analyzers have all
	// states to show: reset the first filled zone and rewrite a quarter
	// of it, then seal the partial zone.
	if fillZones > 0 && fillZones <= vol.NumZones() {
		if err := vol.ResetZone(0); err != nil {
			fmt.Fprintln(os.Stderr, "zones reset:", err)
			os.Exit(1)
		}
		buf := make([]byte, 32*vol.SectorSize())
		quarter := vol.ZoneSectors() / 4
		for off := int64(0); off+32 <= quarter; off += 32 {
			if err := vol.Write(off, buf, 0); err != nil {
				fmt.Fprintln(os.Stderr, "zones rewrite:", err)
				os.Exit(1)
			}
		}
	}
	if z := fillZones; z < vol.NumZones() {
		if err := vol.FinishZone(z); err != nil {
			fmt.Fprintln(os.Stderr, "zones finish:", err)
			os.Exit(1)
		}
	}
	vol.Flush()

	evs := jrn.Events()
	endT := clk.Now()
	fmt.Printf("=== zones: journal holds %d events (%d dropped) ===\n", jrn.Len(), jrn.Dropped())
	if vol.ParityEngineKind() == raizn.EngineZRAID {
		st := vol.PPEngineStats()
		fmt.Printf("parity engine: zraid  pp_volatile=%dB pp_permanent=%dB fallbacks=%d\n",
			st.VolatileBytes, st.PermanentBytes, st.FallbackTotal)
	}

	rows := []obs.ZoneRow{logicalZoneRow(vol)}
	for i, d := range devs {
		if vol.Degraded() == i {
			continue
		}
		rows = append(rows, deviceZoneRow(fmt.Sprintf("dev%d", i), d, vol))
	}
	fmt.Println("\nzone heatmap:")
	obs.WriteZoneHeatmap(os.Stdout, rows)

	fmt.Println("\nlogical zone occupancy:")
	open, active := obs.OccupancyTimeline(evs, obs.SrcLogical)
	obs.WriteOccupancy(os.Stdout, open, active, 24)

	fmt.Println("\nlogical zone lifetimes:")
	obs.WriteZoneLifetimes(os.Stdout, obs.ZoneLifetimes(evs, obs.SrcLogical, endT))

	fmt.Println("\nlayered write amplification:")
	vol.WAReport().Write(os.Stdout)

	// Event mix: which mechanisms the workload exercised, by count.
	counts := map[string]int{}
	for _, e := range evs {
		counts[e.Type.String()]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Println("\nevent mix:")
	for _, n := range names {
		fmt.Printf("  %-16s %6d\n", n, counts[n])
	}
}

// logicalZoneRow converts the volume's zone report to a heatmap row.
func logicalZoneRow(vol *raizn.Volume) obs.ZoneRow {
	row := obs.ZoneRow{Label: "logical"}
	cap := vol.ZoneSectors()
	for _, zd := range vol.ReportZones() {
		row.Zones = append(row.Zones, obs.ZoneInfo{
			Index: zd.Index, State: int(zd.State), WP: zd.WP, Cap: cap,
		})
	}
	return row
}

// deviceZoneRow converts one device's zone report to a heatmap row.
// Device write pointers are absolute LBAs; the heatmap wants them
// zone-relative. Reserved zones carry their role so the renderer can
// mark metadata and partial-parity zones distinctly.
func deviceZoneRow(label string, d *zns.Device, vol *raizn.Volume) obs.ZoneRow {
	row := obs.ZoneRow{Label: label}
	cap := d.Config().ZoneCap
	for _, zd := range d.ReportZones() {
		row.Zones = append(row.Zones, obs.ZoneInfo{
			Index: zd.Index, State: int(zd.State),
			WP: zd.WP - d.ZoneStart(zd.Index), Cap: cap,
			Role: vol.PhysZoneRole(zd.Index),
		})
	}
	return row
}
