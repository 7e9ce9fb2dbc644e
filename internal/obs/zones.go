package obs

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Zone-state ordinals used across journal events and analyzers. They
// deliberately mirror zns.ZoneState (obs cannot import zns), and the
// zns package asserts the correspondence in its tests.
const (
	ZoneStateEmpty = iota
	ZoneStateOpen
	ZoneStateClosed
	ZoneStateFull
	ZoneStateReadOnly
	ZoneStateOffline
	NumZoneStates
)

var zoneStateNames = [NumZoneStates]string{
	"empty", "open", "closed", "full", "read-only", "offline",
}

// ZoneStateName returns the canonical name of a zone-state ordinal.
func ZoneStateName(s int) string {
	if s >= 0 && s < NumZoneStates {
		return zoneStateNames[s]
	}
	return "state?"
}

// ZoneInfo is one zone's instantaneous state for the heatmap — a
// device-neutral copy of what zns.ReportZones / raizn.ReportZones
// return, so the renderer works for logical and physical zones alike.
type ZoneInfo struct {
	Index int
	State int    // zone-state ordinal
	WP    int64  // zone-relative write pointer
	Cap   int64  // writable capacity in sectors
	Role  string // "" or "data" for striped data; "md", "pp" for reserved zones
}

// ZoneRow is one labelled row of the heatmap grid: the logical volume
// or one physical device.
type ZoneRow struct {
	Label string
	Zones []ZoneInfo
}

// heatCell renders one zone as a single character: lifecycle state for
// the terminal states, write-pointer fill shading for open zones.
// Reserved zones keep their role letter in every non-empty state — a
// metadata or partial-parity zone filling up is bookkeeping, not data,
// and the grid should say so at a glance.
func heatCell(z ZoneInfo) byte {
	if z.State != ZoneStateEmpty {
		switch z.Role {
		case "md":
			return 'm'
		case "pp":
			return 'p'
		}
	}
	switch z.State {
	case ZoneStateEmpty:
		return '.'
	case ZoneStateClosed:
		return 'c'
	case ZoneStateFull:
		return 'F'
	case ZoneStateReadOnly:
		return 'R'
	case ZoneStateOffline:
		return 'X'
	}
	// Open: shade by fill. 1..9 covers (0,90%]; '=' is >90% but unsealed.
	if z.Cap <= 0 || z.WP <= 0 {
		return '0'
	}
	fill := float64(z.WP) / float64(z.Cap)
	if fill > 0.9 {
		return '='
	}
	d := int(fill*10) + 1
	if d > 9 {
		d = 9
	}
	return byte('0' + d)
}

// WriteZoneHeatmap renders a compact state/write-pointer grid: one row
// per label, one column per zone. Empty '.', closed 'c', full 'F',
// read-only 'R', offline 'X'; open zones show their fill decile 0-9
// ('=' when over 90% but not yet sealed).
func WriteZoneHeatmap(w io.Writer, rows []ZoneRow) {
	if len(rows) == 0 {
		return
	}
	nz := 0
	labelW := 0
	for _, r := range rows {
		if len(r.Zones) > nz {
			nz = len(r.Zones)
		}
		if len(r.Label) > labelW {
			labelW = len(r.Label)
		}
	}
	fmt.Fprintf(w, "%*s  ", labelW, "")
	for z := 0; z < nz; z++ {
		if z%10 == 0 {
			fmt.Fprintf(w, "%-10d", z)
		}
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		cells := make([]byte, len(r.Zones))
		for i, z := range r.Zones {
			cells[i] = heatCell(z)
		}
		fmt.Fprintf(w, "%-*s  %s\n", labelW, r.Label, cells)
	}
	fmt.Fprintf(w, "%*s  (. empty  1-9 open fill decile  = open >90%%  c closed  F full  R read-only  X offline  m metadata  p partial-parity)\n",
		labelW, "")
}

// OccupancyTimeline extracts the open- and active-zone counts over time
// for one event source from the zone lifecycle events, which carry the
// counts in their C/D slots — no state-machine replay needed.
func OccupancyTimeline(evs []Event, src int) (open, active []DepthPoint) {
	for _, e := range evs {
		if int(e.Src) != src {
			continue
		}
		switch e.Type {
		case EvZoneState, EvZoneReset, EvZoneFinish:
			open = append(open, DepthPoint{e.T, int(e.C)})
			active = append(active, DepthPoint{e.T, int(e.D)})
		}
	}
	return open, active
}

// ZoneLife aggregates one zone's lifetime from the journal.
type ZoneLife struct {
	Zone     int32
	Resets   int64
	Finishes int64
	InState  [NumZoneStates]time.Duration
}

// ZoneLifetimes replays the zone lifecycle events of one source and
// returns per-zone reset/finish counts and time-in-state up to endT.
// Zones are assumed empty at virtual time zero (enable the journal
// before the first write for exact accounting).
func ZoneLifetimes(evs []Event, src int, endT time.Duration) []ZoneLife {
	type zstate struct {
		life  ZoneLife
		state int
		since time.Duration
	}
	zones := make(map[int32]*zstate)
	get := func(z int32) *zstate {
		zs, ok := zones[z]
		if !ok {
			zs = &zstate{life: ZoneLife{Zone: z}, state: ZoneStateEmpty}
			zones[z] = zs
		}
		return zs
	}
	settle := func(zs *zstate, now time.Duration, newState int) {
		if now > zs.since && zs.state >= 0 && zs.state < NumZoneStates {
			zs.life.InState[zs.state] += now - zs.since
		}
		zs.state, zs.since = newState, now
	}
	for _, e := range evs {
		if int(e.Src) != src || e.Zone < 0 {
			continue
		}
		switch e.Type {
		case EvZoneState:
			settle(get(e.Zone), e.T, int(e.A))
		case EvZoneReset:
			zs := get(e.Zone)
			settle(zs, e.T, ZoneStateEmpty)
			zs.life.Resets++
		case EvZoneFinish:
			zs := get(e.Zone)
			settle(zs, e.T, ZoneStateFull)
			zs.life.Finishes++
		}
	}
	out := make([]ZoneLife, 0, len(zones))
	for _, zs := range zones {
		settle(zs, endT, zs.state)
		out = append(out, zs.life)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Zone < out[j].Zone })
	return out
}

// WriteZoneLifetimes renders per-zone lifetime stats as a table.
func WriteZoneLifetimes(w io.Writer, lives []ZoneLife) {
	if len(lives) == 0 {
		fmt.Fprintln(w, "(no zone lifecycle events recorded)")
		return
	}
	fmt.Fprintf(w, "%-5s %7s %8s %12s %12s %12s %12s\n",
		"zone", "resets", "finishes", "empty", "open", "closed", "full")
	for _, l := range lives {
		fmt.Fprintf(w, "z%-4d %7d %8d %12v %12v %12v %12v\n",
			l.Zone, l.Resets, l.Finishes,
			l.InState[ZoneStateEmpty], l.InState[ZoneStateOpen],
			l.InState[ZoneStateClosed], l.InState[ZoneStateFull])
	}
}

// WACategory is one slice of the raizn physical-write breakdown.
type WACategory struct {
	Name  string
	Bytes int64
}

// WADevice is one device's contribution to the device layer of the WA
// report. FlashBytes is zero for device models without an FTL (zns).
type WADevice struct {
	Name       string
	HostBytes  int64 // bytes the upper layer wrote to this device
	FlashBytes int64 // bytes physically programmed, including GC copies
}

// WAReport is the layered write-amplification decomposition: user bytes
// at the top, the raizn layer's physical writes broken into categories
// (data, parity, partial-parity headers/payloads, metadata, rebuild),
// and the device layer's host and flash-program bytes at the bottom.
type WAReport struct {
	UserBytes  int64
	Categories []WACategory
	Devices    []WADevice
}

// RaiznBytes sums the category breakdown — everything the raizn layer
// physically wrote on behalf of UserBytes of user data.
func (r *WAReport) RaiznBytes() int64 {
	var n int64
	for _, c := range r.Categories {
		n += c.Bytes
	}
	return n
}

// DeviceHostBytes sums per-device host writes.
func (r *WAReport) DeviceHostBytes() int64 {
	var n int64
	for _, d := range r.Devices {
		n += d.HostBytes
	}
	return n
}

// FlashBytes sums per-device flash programs; zero when no device has an
// FTL layer.
func (r *WAReport) FlashBytes() int64 {
	var n int64
	for _, d := range r.Devices {
		n += d.FlashBytes
	}
	return n
}

func waFactor(num, den int64) string {
	if den <= 0 {
		return "    -  "
	}
	return fmt.Sprintf("%6.3fx", float64(num)/float64(den))
}

func waMiB(b int64) string {
	return fmt.Sprintf("%9.2f MiB", float64(b)/(1<<20))
}

// Write renders the layered WA report: each layer's total with its
// amplification factor over the user bytes, category and per-device
// breakdowns indented beneath.
func (r *WAReport) Write(w io.Writer) {
	user := r.UserBytes
	raizn := r.RaiznBytes()
	fmt.Fprintf(w, "%-26s %s\n", "user bytes", waMiB(user))
	fmt.Fprintf(w, "%-26s %s  %s vs user\n", "raizn physical bytes", waMiB(raizn), waFactor(raizn, user))
	for _, c := range r.Categories {
		pct := 0.0
		if raizn > 0 {
			pct = 100 * float64(c.Bytes) / float64(raizn)
		}
		fmt.Fprintf(w, "  %-24s %s  %5.1f%%\n", c.Name, waMiB(c.Bytes), pct)
	}
	host := r.DeviceHostBytes()
	fmt.Fprintf(w, "%-26s %s  %s vs user\n", "device host bytes", waMiB(host), waFactor(host, user))
	flash := r.FlashBytes()
	if flash > 0 {
		fmt.Fprintf(w, "%-26s %s  %s vs host, %s vs user\n",
			"flash programs", waMiB(flash), waFactor(flash, host), waFactor(flash, user))
	}
	for _, d := range r.Devices {
		line := fmt.Sprintf("  %-24s %s", d.Name, waMiB(d.HostBytes))
		if d.FlashBytes > 0 {
			line += fmt.Sprintf("  flash %s  %s device WA", waMiB(d.FlashBytes), waFactor(d.FlashBytes, d.HostBytes))
		}
		fmt.Fprintln(w, line)
	}
}

// WriteOccupancy renders the open/active occupancy timelines as two
// stacked ASCII charts.
func WriteOccupancy(w io.Writer, open, active []DepthPoint, buckets int) {
	fmt.Fprintln(w, "open zones:")
	WriteTimeline(w, open, buckets)
	fmt.Fprintln(w, "active zones:")
	WriteTimeline(w, active, buckets)
}
