package bench

import (
	"fmt"
	"io"
	"time"

	"raizn/internal/fio"
	"raizn/internal/obs"
	"raizn/internal/stats"
	"raizn/internal/vclock"
)

// runGCTimeseries reproduces the paper's two-phase overwrite benchmark:
// phase 1 fills the array with five concurrent writers on disjoint 20%
// regions (interleaving their data inside each erase block of the
// conventional SSDs); phase 2 sequentially overwrites the whole address
// space with one writer. mdraid collapses once the FTLs exhaust spare
// blocks and must relocate valid pages; RAIZN overwrites by resetting
// zones and stays flat.
func runGCTimeseries(w io.Writer, quick bool) error {
	sc := scaleFor(quick)
	interval := 10 * time.Millisecond
	if quick {
		interval = 5 * time.Millisecond
	}

	type phaseStats struct {
		p1, p2     *stats.Series
		p2min      float64
		p2steady   float64
		p2meanLat  time.Duration
		p2worstLat time.Duration
		evs        []obs.Event // FTL journal (mdraid stack only)
		dropped    uint64
	}

	run := func(kind string) phaseStats {
		var ps phaseStats
		var jrn *obs.Journal
		clk := vclock.New()
		clk.Run(func() {
			s := newStack(clk, sc, kind, true, 16)
			tgt := s.tgt
			if s.md != nil {
				// Journal the FTLs so the phase-2 table can show the
				// free-block drain and the device WA climbing as GC
				// copies valid pages (the cliff's cause, not just its
				// throughput symptom).
				jrn = obs.NewJournal(clk, obs.JournalConfig{Capacity: 65536})
				jrn.Enable()
				for i, d := range s.mdDevs {
					d.AttachJournal(jrn, i)
				}
			}

			// Phase 1: five writers on disjoint 20% regions.
			per := tgt.NumSectors() / 5 / 16 * 16
			res := fio.Run(clk, tgt, stripedJobs(5, per, fio.Job{Pattern: fio.SeqWrite, BlockSectors: 32, QueueDepth: 16}), fio.Options{SampleInterval: interval})
			ps.p1 = res.Series

			// Phase 2: one writer overwrites the whole address space.
			// RAIZN (a zoned volume) overwrites by resetting each zone
			// then rewriting it; mdraid overwrites in place.
			// The sampler closes the overwrite's last, partial interval
			// on its next wake; the root waits for that before it
			// returns, so no detached driver ticks the series while
			// the host reads it.
			ps.p2 = stats.NewSeries(interval)
			done, stopped := false, clk.NewFuture()
			clk.Go(func() {
				for !done {
					clk.Sleep(interval)
					ps.p2.Tick(clk.Now())
				}
				stopped.Complete(nil)
			})
			if zr, ok := tgt.(fio.ZoneResetter); ok {
				overwriteZoned(clk, tgt, zr, ps.p2)
			} else {
				overwriteRange(clk, tgt, 0, tgt.NumSectors(), ps.p2)
			}
			done = true
			stopped.Wait()
		})
		if jrn != nil {
			ps.evs = jrn.Events()
			ps.dropped = jrn.Dropped()
		}
		samples := ps.p2.Samples()
		// Trim the final partial interval.
		if len(samples) > 2 {
			samples = samples[:len(samples)-1]
		}
		ps.p2min, ps.p2steady = minMaxTput(samples)
		for _, s := range samples {
			if s.MeanLat > ps.p2worstLat {
				ps.p2worstLat = s.MeanLat
			}
		}
		return ps
	}

	md := run("mdraid")
	rz := run("raizn")

	fmt.Fprintln(w, "\nphase 2 (full overwrite) time series, MiB/s (md-free / md-WA from the FTL journal):")
	t := newTable(w, "t(ms)", "mdraid", "raizn", "md-free", "md-WA")
	mdS, rzS := md.p2.Samples(), rz.p2.Samples()
	ftl := newFTLSeries(md.evs)
	n := len(mdS)
	if len(rzS) < n {
		n = len(rzS)
	}
	step := 1
	if n > 40 {
		step = n / 40
	}
	for i := 0; i < n; i += step {
		free, wa, ok := ftl.at(mdS[i].T)
		freeS := "-"
		if ok {
			freeS = fmt.Sprintf("%d", free)
		}
		t.row(fmt.Sprintf("%d", mdS[i].T.Milliseconds()), f1(mdS[i].Throughput), f1(rzS[i].Throughput),
			freeS, fmt.Sprintf("%.2f", wa))
	}
	if md.dropped > 0 {
		fmt.Fprintf(w, "(FTL journal wrapped: %d oldest events dropped; columns reflect retained events)\n", md.dropped)
	}

	mdMean := meanTput(mdS)
	rzMean := meanTput(rzS)
	fmt.Fprintf(w, "\nmdraid phase-2 throughput: mean %.1f, floor %.1f, ceiling %.1f MiB/s (%.0f%% drop)\n",
		mdMean, md.p2min, md.p2steady, (1-md.p2min/md.p2steady)*100)
	fmt.Fprintf(w, "raizn  phase-2 throughput: mean %.1f, floor %.1f, ceiling %.1f MiB/s (%.0f%% drop)\n",
		rzMean, rz.p2min, rz.p2steady, (1-rz.p2min/rz.p2steady)*100)
	if mdMean > 0 {
		fmt.Fprintf(w, "raizn mean / mdraid mean during the overwrite = %.1fx\n", rzMean/mdMean)
	}
	endFree, endWA, ftlOK := ftl.at(1 << 62)
	if ftlOK {
		fmt.Fprintf(w, "mdraid FTL at end of run: %d free erase blocks (min across devices), device WA %.2f\n", endFree, endWA)
	}
	fmt.Fprintln(w, "paper: mdraid throughput drops up to 93% once FTL GC starts; RAIZN is flat (no on-device GC).")
	return nil
}

// ftlSeries replays a blockdev FTL journal to answer "as of time t":
// the minimum free-erase-block count across devices (EvBlockAlloc) and
// the array device-level WA, total flash programs over total host
// programs (the cumulative counters each EvGC event carries).
type ftlSeries struct {
	evs  []obs.Event
	next int
	free map[int16]int64
	gc   map[int16][2]int64 // host pages, total programs
}

func newFTLSeries(evs []obs.Event) *ftlSeries {
	return &ftlSeries{evs: evs, free: map[int16]int64{}, gc: map[int16][2]int64{}}
}

// at advances to virtual time t (monotonically across calls) and
// returns the min free-block count and device WA. ok is false before
// the first allocation event.
func (f *ftlSeries) at(t time.Duration) (minFree int64, wa float64, ok bool) {
	for f.next < len(f.evs) && f.evs[f.next].T <= t {
		e := f.evs[f.next]
		switch e.Type {
		case obs.EvBlockAlloc:
			f.free[e.Src] = e.A
		case obs.EvGC:
			f.gc[e.Src] = [2]int64{e.C, e.D}
		}
		f.next++
	}
	wa = 1
	var host, prog int64
	for _, g := range f.gc {
		host += g[0]
		prog += g[1]
	}
	if host > 0 {
		wa = float64(prog) / float64(host)
	}
	if len(f.free) == 0 {
		return 0, wa, false
	}
	minFree = -1
	for _, v := range f.free {
		if minFree < 0 || v < minFree {
			minFree = v
		}
	}
	return minFree, wa, true
}

// overwriteZoned rewrites the zoned volume zone by zone: reset, then
// sequential writes.
func overwriteZoned(clk *vclock.Clock, tgt fio.Target, zr fio.ZoneResetter, series *stats.Series) {
	zs := zr.ZoneSectors()
	for z := 0; z < zr.NumZones(); z++ {
		if err := zr.ResetZone(z); err != nil {
			panic(err)
		}
		overwriteRange(clk, tgt, int64(z)*zs, zs, series)
	}
}

// overwriteRange writes [base, base+n) in 32-sector commands, keeping a
// window of eight outstanding, and records each one in series.
func overwriteRange(clk *vclock.Clock, tgt fio.Target, base, n int64, series *stats.Series) {
	const bs, window = 32, 8
	buf := make([]byte, bs*tgt.SectorSize())
	futs := make([]*vclock.Future, 0, window)
	starts := make([]time.Duration, 0, window)
	drainOne := func() {
		futs[0].Wait()
		series.Observe(int64(len(buf)), clk.Now()-starts[0])
		futs = futs[1:]
		starts = starts[1:]
	}
	for off := int64(0); off+bs <= n; off += bs {
		if len(futs) == window {
			drainOne()
		}
		starts = append(starts, clk.Now())
		futs = append(futs, tgt.SubmitWrite(base+off, buf))
	}
	for len(futs) > 0 {
		drainOne()
	}
}

// meanTput averages throughput over samples with activity.
func meanTput(samples []stats.Sample) float64 {
	var sum float64
	n := 0
	for _, s := range samples {
		if s.Ops == 0 {
			continue
		}
		sum += s.Throughput
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// minMaxTput returns the floor and ceiling of non-zero samples.
func minMaxTput(samples []stats.Sample) (min, max float64) {
	min = -1
	for _, s := range samples {
		if s.Ops == 0 {
			continue
		}
		if min < 0 || s.Throughput < min {
			min = s.Throughput
		}
		if s.Throughput > max {
			max = s.Throughput
		}
	}
	if min < 0 {
		min = 0
	}
	return
}
