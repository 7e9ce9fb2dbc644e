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

// paper block-size sweep, in sectors (4 KiB each).
func blockSizes(quick bool) []int64 {
	if quick {
		return []int64{1, 16, 64}
	}
	return []int64{1, 4, 16, 64, 128, 256} // 4K .. 1M
}

// stripe unit sweep, in sectors: 8K..128K.
func stripeUnits(quick bool) []int64 {
	if quick {
		return []int64{4, 16}
	}
	return []int64{2, 4, 8, 16, 32}
}

// rawResult is one raw device's §6.1 throughputs, in MiB/s.
type rawResult struct{ write, read, randread float64 }

// measureRaw measures a single raw device of each kind, reproducing the
// §6.1 numbers: ZNS 1052 MiB/s write / 3265 MiB/s read, each a few
// percent below the conventional device.
func measureRaw(quick bool) (znsDev, conv rawResult) {
	sc := scaleFor(quick)
	measure := func(clk *vclock.Clock, tgt fio.Target) (r rawResult) {
		size := tgt.NumSectors()
		r.write = fio.Run(clk, tgt, []fio.Job{{Pattern: fio.SeqWrite, BlockSectors: 32, QueueDepth: 32, Size: size}}, fio.Options{}).Throughput
		r.read = fio.Run(clk, tgt, []fio.Job{{Pattern: fio.SeqRead, BlockSectors: 32, QueueDepth: 32, Size: size}}, fio.Options{}).Throughput
		r.randread = fio.Run(clk, tgt, []fio.Job{{Pattern: fio.RandRead, BlockSectors: 1, QueueDepth: 64, TotalBytes: size * 4096 / 4}}, fio.Options{}).Throughput
		return r
	}
	clk := vclock.New()
	clk.Run(func() { znsDev = measure(clk, fio.ZNSFlatTarget{D: zns.NewDevice(clk, znsConfig(sc, true))}) })
	clk = vclock.New()
	clk.Run(func() { conv = measure(clk, fio.BlockTarget{D: blockdev.NewDevice(clk, blockConfig(sc, true))}) })
	return znsDev, conv
}

func runRaw(w io.Writer, quick bool) error {
	z, c := measureRaw(quick)
	t := newTable(w, "device", "seqwrite MiB/s", "seqread MiB/s", "randread MiB/s")
	t.row("zns", f1(z.write), f1(z.read), f1(z.randread))
	t.row("conventional", f1(c.write), f1(c.read), f1(c.randread))
	fmt.Fprintf(w, "paper: ZNS write 1052 MiB/s (-2%% vs conv), read 3265 MiB/s (-4%% vs conv)\n")
	fmt.Fprintf(w, "measured deltas: write %+.1f%%, read %+.1f%%\n",
		(z.write-c.write)/c.write*100, (z.read-c.read)/c.read*100)
	return nil
}

// volumeResult is the paper's three microbenchmark workloads at one
// block size: sequential write on a fresh volume, sequential and random
// read on a primed one.
type volumeResult struct {
	write, seqread, randread float64       // MiB/s
	wp50, wp999, rp50, rp999 time.Duration // write/read latencies
}

// microJobs is the closed-loop job count and queue depth of the
// microbenchmarks.
func microJobs(quick bool) (jobs, qd int) {
	if quick {
		return 4, 16
	}
	return 8, 64
}

func runWorkloads(sc scale, kind string, su, bs int64, quick bool) volumeResult {
	var out volumeResult
	jobs, qd := microJobs(quick)
	// fresh builds the array on a new clock; the clock drains the build
	// before the workload starts.
	fresh := func() (*vclock.Clock, fio.Target) {
		clk := vclock.New()
		var s stack
		clk.Run(func() { s = newStack(clk, sc, kind, true, su) })
		return clk, s.tgt
	}

	// Sequential write on a fresh volume (paper: devices reformatted
	// before each write trial).
	clk, tgt := fresh()
	per := tgt.NumSectors() / int64(jobs) / bs * bs
	clk.Run(func() {
		res := fio.Run(clk, tgt, stripedJobs(jobs, per, fio.Job{Pattern: fio.SeqWrite, BlockSectors: bs, QueueDepth: qd}), fio.Options{})
		out.write = res.Throughput
		out.wp50 = res.Hist.Percentile(50)
		out.wp999 = res.Hist.Percentile(99.9)
	})

	// Prime a fresh volume, then sequential + random read.
	clk, tgt = fresh()
	clk.Run(func() {
		fio.Run(clk, tgt, stripedJobs(jobs, per, fio.Job{Pattern: fio.SeqWrite, BlockSectors: 16, QueueDepth: qd}), fio.Options{})
		res := fio.Run(clk, tgt, stripedJobs(jobs, per, fio.Job{Pattern: fio.SeqRead, BlockSectors: bs, QueueDepth: qd}), fio.Options{})
		out.seqread = res.Throughput
		out.rp50 = res.Hist.Percentile(50)
		out.rp999 = res.Hist.Percentile(99.9)
		out.randread = fio.Run(clk, tgt, []fio.Job{randReadJob(tgt.NumSectors(), per*int64(jobs), bs, quick)}, fio.Options{}).Throughput
	})
	return out
}

// randReadJob is the microbenchmarks' random read of the first span
// sectors of a size-sector volume: an eighth of the volume's bytes, a
// quarter of that under quick.
func randReadJob(size, span, bs int64, quick bool) fio.Job {
	total := size * 4096 / 8
	if quick {
		total /= 4
	}
	return fio.Job{Pattern: fio.RandRead, BlockSectors: bs, QueueDepth: 256, Size: span, TotalBytes: total}
}

// runStripeSweep reproduces Figures 7 (mdraid) and 8 (RAIZN): throughput
// of the three workloads across block sizes, one series per stripe unit
// size.
func runStripeSweep(w io.Writer, quick bool, kind string) error {
	sc := scaleFor(quick)
	for _, su := range stripeUnits(quick) {
		fmt.Fprintf(w, "\n-- stripe unit %d KiB --\n", su*4)
		t := newTable(w, "bs", "write MiB/s", "seqread MiB/s", "randread MiB/s")
		for _, bs := range blockSizes(quick) {
			r := runWorkloads(sc, kind, su, bs, quick)
			t.row(kib(bs), f1(r.write), f1(r.seqread), f1(r.randread))
		}
	}
	return nil
}

// runHeadToHead reproduces Figure 9: both stacks at the chosen 64 KiB
// stripe unit, reporting throughput, median latency and p99.9 latency.
func runHeadToHead(w io.Writer, quick bool) error {
	sc := scaleFor(quick)
	const su = 16 // 64 KiB

	for _, kind := range []string{"mdraid", "raizn"} {
		fmt.Fprintf(w, "\n-- %s (64 KiB stripe units) --\n", kind)
		t := newTable(w, "bs", "write MiB/s", "seqread MiB/s", "randrd MiB/s", "w p50", "w p99.9", "r p50", "r p99.9")
		for _, bs := range blockSizes(quick) {
			r := runWorkloads(sc, kind, su, bs, quick)
			t.row(kib(bs), f1(r.write), f1(r.seqread), f1(r.randread),
				r.wp50.String(), r.wp999.String(), r.rp50.String(), r.rp999.String())
		}
	}
	fmt.Fprintln(w, "\npaper shape: RAIZN trails mdraid on 4-64K writes (parity-log header overhead),")
	fmt.Fprintln(w, "matches or beats it at 256K-1M; latencies comparable.")
	return nil
}
