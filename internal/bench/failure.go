package bench

import (
	"fmt"
	"io"
	"time"

	"raizn/internal/blockdev"
	"raizn/internal/fio"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// runDegraded reproduces Figure 11: prime the volume, remove the first
// device, and run the sequential/random read sweeps.
func runDegraded(w io.Writer, quick bool) error {
	sc := scaleFor(quick)
	jobs, qd := microJobs(quick)

	for _, kind := range []string{"mdraid", "raizn"} {
		fmt.Fprintf(w, "\n-- %s, degraded (device 0 removed) --\n", kind)
		t := newTable(w, "bs", "seqread MiB/s", "randread MiB/s")
		for _, bs := range blockSizes(quick) {
			clk := vclock.New()
			var seq, rnd float64
			clk.Run(func() {
				s := newStack(clk, sc, kind, true, 16)
				size := s.tgt.NumSectors()
				per := size / int64(jobs) / 16 * 16
				fio.Run(clk, s.tgt, stripedJobs(jobs, per, fio.Job{Pattern: fio.SeqWrite, BlockSectors: 16, QueueDepth: qd}), fio.Options{})
				if s.rz != nil {
					s.rz.FailDevice(0)
				} else {
					s.md.FailDevice(0)
				}
				seq = fio.Run(clk, s.tgt, stripedJobs(jobs, per, fio.Job{Pattern: fio.SeqRead, BlockSectors: bs, QueueDepth: qd, Size: per / bs * bs}), fio.Options{}).Throughput
				rnd = fio.Run(clk, s.tgt, []fio.Job{randReadJob(size, per*int64(jobs), bs, quick)}, fio.Options{}).Throughput
			})
			t.row(kib(bs), f1(seq), f1(rnd))
		}
	}
	fmt.Fprintln(w, "\npaper: degraded performance comparable; RAIZN slightly behind at 4K, ahead at larger IO.")
	return nil
}

// repair is one array's repair of a replaced device.
type repair struct {
	ttr   time.Duration // virtual time to repair
	bytes int64         // bytes written to the replacement
}

// measureTTR fills frac of each stack, fails device 1, and repairs it
// onto a fresh device. RAIZN fills whole zones and rebuilds only their
// valid data; mdraid fills the same share of its sectors and resyncs the
// whole device.
func measureTTR(sc scale, frac float64) (rz, md repair) {
	clk := vclock.New()
	clk.Run(func() {
		v := newStack(clk, sc, "raizn", true, 16).rz
		zones := int(float64(v.NumZones())*frac + 0.5)
		zs := v.ZoneSectors()
		for z := 0; z < zones; z++ {
			fio.Run(clk, fio.RaiznTarget{V: v}, []fio.Job{{Pattern: fio.SeqWrite, BlockSectors: 32, QueueDepth: 16,
				Offset: int64(z) * zs, Size: zs}}, fio.Options{})
		}
		v.FailDevice(1)
		st, err := v.ReplaceDevice(zns.NewDevice(clk, znsConfig(sc, true)))
		if err != nil {
			panic(err)
		}
		rz = repair{st.Elapsed, st.BytesWritten}
	})
	clk = vclock.New()
	clk.Run(func() {
		v := newStack(clk, sc, "mdraid", true, 16).md
		if fill := int64(float64(v.NumSectors()) * frac / 32); fill > 0 {
			fio.Run(clk, fio.MdraidTarget{V: v}, []fio.Job{{Pattern: fio.SeqWrite, BlockSectors: 32, QueueDepth: 16,
				Size: fill * 32}}, fio.Options{})
		}
		v.Flush()
		v.FailDevice(1)
		st, err := v.Resync(blockdev.NewDevice(clk, blockConfig(sc, true)))
		if err != nil {
			panic(err)
		}
		md = repair{st.Elapsed, st.BytesWritten}
	})
	return rz, md
}

// ttrFractions is Figure 12's fill sweep.
func ttrFractions(quick bool) []float64 {
	if quick {
		return []float64{0.25, 1.0}
	}
	return []float64{0.125, 0.25, 0.5, 0.75, 1.0}
}

// runRebuildTTR reproduces Figure 12: RAIZN's time to repair scales with
// valid data, mdraid's is constant (full resync).
func runRebuildTTR(w io.Writer, quick bool) error {
	sc := scaleFor(quick)
	gib := func(b int64) string { return f2(float64(b) / (1 << 30)) }
	t := newTable(w, "filled", "raizn TTR", "raizn GiB written", "mdraid TTR", "mdraid GiB written")
	for _, frac := range ttrFractions(quick) {
		rz, md := measureTTR(sc, frac)
		t.row(fmt.Sprintf("%.0f%%", frac*100), rz.ttr.String(), gib(rz.bytes), md.ttr.String(), gib(md.bytes))
	}
	fmt.Fprintln(w, "\npaper: RAIZN TTR scales linearly with valid data; mdraid TTR is constant (full resync).")
	return nil
}
