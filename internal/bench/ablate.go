package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"raizn/internal/blockdev"
	"raizn/internal/fio"
	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// runAblateWAL measures what the §5.2 zone-reset write-ahead log costs
// per reset ("this introduces additional latency to zone resets"): the
// WAL phase of each traced reset, from the reset's start to the last of
// its OpMDAppend children (the two FUA intent records) completing.
func runAblateWAL(w io.Writer, quick bool) error {
	sc := scaleFor(quick)
	resets := 20
	if quick {
		resets = 6
	}
	var wal, total time.Duration
	clk := vclock.New()
	clk.Run(func() {
		devs := make([]*zns.Device, sc.numDevices)
		for i := range devs {
			devs[i] = zns.NewDevice(clk, znsConfig(sc, true))
		}
		cfg := raizn.DefaultConfig()
		cfg.Tracer = obs.NewTracer(clk, obs.Config{})
		v, err := raizn.Create(clk, devs, cfg)
		if err != nil {
			panic(err)
		}
		buf := make([]byte, 64<<10)
		for i := 0; i < resets; i++ {
			if err := v.Write(0, buf, 0); err != nil {
				panic(err)
			}
			cfg.Tracer.Enable()
			err := v.ResetZone(0)
			cfg.Tracer.Disable()
			if err != nil {
				panic(err)
			}
		}
		for _, sp := range cfg.Tracer.Snapshot() {
			if sp.Op != obs.OpReset {
				continue
			}
			total += sp.Duration()
			var phase time.Duration
			for _, c := range sp.Children() {
				if end, ok := c.EndTime(); ok && c.Op == obs.OpMDAppend {
					phase = max(phase, end-sp.Start())
				}
			}
			wal += phase
		}
	})
	n := time.Duration(resets)
	t := newTable(w, "reset phase", "latency")
	t.row("WAL", (wal / n).String())
	t.row("whole", (total / n).String())
	fmt.Fprintln(w, "\nWAL = the two FUA intent appends; the paper accepts their cost because workloads do not write immediately after resetting (§5.2).")
	return nil
}

// runAblateJournal quantifies why the paper ran mdraid without a journal
// ("ensuring maximum performance"): with the journal attached every
// stripe write is first made durable in the log, doubling write traffic;
// RAIZN closes the same write hole with partial-parity logs whose cost
// was already paid in Figure 9.
func runAblateJournal(w io.Writer, quick bool) error {
	sc := scaleFor(quick)
	jobs, qd := microJobs(quick)
	t := newTable(w, "config", "seqwrite MiB/s", "randwrite 16K MiB/s")
	for _, mode := range []string{"mdraid", "mdraid+journal", "raizn"} {
		clk := vclock.New()
		var seq, rnd float64
		clk.Run(func() {
			s := newStack(clk, sc, strings.TrimSuffix(mode, "+journal"), true, 16)
			if mode == "mdraid+journal" {
				s.md.AttachJournal(blockdevNew(clk, sc))
			}
			tgt := s.tgt
			size := tgt.NumSectors()
			per := size / int64(jobs) / 16 * 16
			seq = fio.Run(clk, tgt, stripedJobs(jobs, per, fio.Job{Pattern: fio.SeqWrite, BlockSectors: 32, QueueDepth: qd}), fio.Options{}).Throughput

			if mode != "raizn" { // random overwrites need a block volume
				rnd = fio.Run(clk, tgt, []fio.Job{{Pattern: fio.RandWrite, BlockSectors: 4,
					QueueDepth: qd, TotalBytes: size * 4096 / 8, Seed: 7}}, fio.Options{}).Throughput
			}
		})
		rndCell := f1(rnd)
		if mode == "raizn" {
			rndCell = "n/a (zoned)"
		}
		t.row(mode, f1(seq), rndCell)
	}
	fmt.Fprintln(w, "\nthe journal absorbs the full array write stream on one device before the array sees it;")
	fmt.Fprintln(w, "RAIZN provides the equivalent guarantee (single-stripe write atomicity, §5.2)")
	fmt.Fprintln(w, "with the partial-parity log already counted in its Figure 9 numbers.")
	return nil
}

// blockdevNew builds the journal device. A journal sees pure sequential
// overwrite, for which real drives erase across parallel dies without
// stalling the write path; the simulator's single write pipe charges
// erases serially, so the journal device gets a short erase latency to
// approximate that parallelism.
func blockdevNew(clk *vclock.Clock, sc scale) *blockdev.Device {
	cfg := blockConfig(sc, true)
	cfg.EraseLatency = 300 * time.Microsecond
	return blockdev.NewDevice(clk, cfg)
}
