package raizn

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// ppAccountingGolden pins the partial-parity traffic of one fixed
// workload on both parity engines: what each phase adds to the engine's
// counters, the raizn_pp_* gauges, the layered WA categories and every
// device's write counters. A change to how partial parity is persisted
// that must not move a byte leaves it unmodified.
const ppAccountingGolden = "testdata/pp_accounting.golden"

// TestPPAccountingGolden runs ppAccountingRows on both engines and
// compares the rows with the golden file.
func TestPPAccountingGolden(t *testing.T) {
	var got []string
	for _, env := range fuaEnvs() {
		c := vclock.New()
		c.Run(func() { got = append(got, ppAccountingRows(t, c, env)...) })
	}
	if t.Failed() {
		return
	}
	want := readGolden(t, ppAccountingGolden)
	if len(want) != len(got) {
		t.Errorf("%s has %d rows, the run produced %d", ppAccountingGolden, len(want), len(got))
	}
	for i := range min(len(want), len(got)) {
		if got[i] != want[i] {
			t.Errorf("row %d differs from %s:\n got  %s\n want %s", i, ppAccountingGolden, got[i], want[i])
		}
	}
	if t.Failed() {
		f, err := os.CreateTemp("", "pp_accounting-*.golden")
		if err == nil {
			fmt.Fprintln(f, strings.Join(got, "\n"))
			f.Close()
			t.Logf("rows of this run: %s", f.Name())
		}
	}
}

// ppAccountingRows drives the workload on a fresh array of env and returns
// one row per phase. Zones 0, 1 and 2 are positioned at stripes 5, 4 and 3,
// whose parity all maps to device 4, so three partial stripes stay live
// against zraidDevConfig's two-slot table (as in the zraid-overflow chaos
// scenario):
//
//   - inplace: sub-unit FUA writes into zone 0's tail stripe, each
//     superseding the stripe's previous image;
//   - overflow: five rounds of 8-sector FUA appends to the three zones,
//     the third image of each round finding both slots live;
//   - complete: the three stripes complete;
//   - reset: zone 2 takes a partial stripe and is reset;
//   - finish: zone 1 takes a partial stripe and is finished;
//   - mount: zone 0 takes an unflushed partial stripe, every device loses
//     power and the array is mounted. On zraid the stripe's slot image
//     survives, and mount rebuilds the torn unit from it (WP 396, 384 on
//     the logged engine, whose log record was not flushed).
func ppAccountingRows(t *testing.T, c *vclock.Clock, env fuaEnv) []string {
	devs, v, err := env.create(c)
	if err != nil {
		t.Fatalf("%s: Create: %v", env.name, err)
	}
	zs := v.ZoneSectors()
	var rows []string
	row := func(phase string) {
		rows = append(rows, fmt.Sprintf("%s %s %s", env.name, phase, ppAccountingRow(v, devs)))
	}
	write := func(z int, off int64, n int, flags zns.Flag) {
		mustWriteV(t, v, int64(z)*zs+off, n, flags)
	}

	write(0, 0, 320, 0)
	for off := int64(320); off < 336; off += 4 {
		write(0, off, 4, zns.FUA)
	}
	row("inplace")

	write(1, 0, 256, 0)
	write(2, 0, 192, 0)
	for i := int64(0); i < 5; i++ {
		write(0, 336+8*i, 8, zns.FUA)
		write(1, 256+8*i, 8, zns.FUA)
		write(2, 192+8*i, 8, zns.FUA)
	}
	row("overflow")

	write(0, 376, 8, zns.FUA)
	write(1, 296, 24, zns.FUA)
	write(2, 232, 24, zns.FUA)
	row("complete")

	write(2, 256, 8, zns.FUA)
	if err := v.ResetZone(2); err != nil {
		t.Fatalf("%s: ResetZone: %v", env.name, err)
	}
	row("reset")

	write(1, 320, 24, zns.FUA)
	if err := v.FinishZone(1); err != nil {
		t.Fatalf("%s: FinishZone: %v", env.name, err)
	}
	row("finish")

	write(0, 384, 12, 0)
	for _, d := range devs {
		d.PowerLoss(nil)
	}
	if v, err = Mount(c, devs, env.cfg); err != nil {
		t.Fatalf("%s: Mount: %v", env.name, err)
	}
	row("mount")
	return rows
}

// ppAccountingRow renders the counters ppAccountingRows pins.
func ppAccountingRow(v *Volume, devs []*zns.Device) string {
	var b strings.Builder
	st := v.PPEngineStats()
	fmt.Fprintf(&b, "engine=%d/%d/%d/%d/%d", st.VolatileBytes, st.PermanentBytes, st.FallbackTotal, st.GCRuns, st.GCMigrated)
	g := v.Metrics().Snapshot().Gauges
	fmt.Fprintf(&b, " gauges=%d/%d/%d", g["raizn_pp_volatile_bytes"], g["raizn_pp_permanent_bytes"], g["raizn_pp_fallback_total"])
	b.WriteString(" wa=")
	for i, cat := range v.WAReport().Categories {
		if i > 0 {
			b.WriteByte('/')
		}
		fmt.Fprintf(&b, "%s:%d", cat.Name, cat.Bytes)
	}
	fmt.Fprintf(&b, " pplogs=%d", v.Stats().PartialParityLogs)
	for i, d := range devs {
		w, _, _, _ := d.Counters()
		fmt.Fprintf(&b, " d%d=%d/%d/%d", i, w, d.WriteCommands(), d.FlashProgramBytes())
	}
	return b.String()
}
