package bench

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"raizn/internal/fio"
	"raizn/internal/kvs"
	"raizn/internal/lfs"
	"raizn/internal/oltp"
	"raizn/internal/stats"
	"raizn/internal/vclock"
)

// appScale returns device geometry for the application benchmarks (data
// must be stored: the KV store reads it back).
func appScale(quick bool) scale {
	if quick {
		return scale{znsZones: 16, znsZoneCap: 256, numDevices: 5}
	}
	return scale{znsZones: 48, znsZoneCap: 512, numDevices: 5} // 96 MiB/device
}

// newAppStack builds fs + db on the requested volume stack.
func newAppStack(clk *vclock.Clock, sc scale, kind string) (*kvs.DB, error) {
	s := newStack(clk, sc, kind, false, 16)
	var dev lfs.Device = fio.RaiznTarget{V: s.rz}
	if s.md != nil {
		dev = lfs.NewBlockDevice(fio.MdraidTarget{V: s.md}, sc.znsZoneCap*4)
	}
	fsys, err := lfs.Format(clk, dev)
	if err != nil {
		return nil, err
	}
	return kvs.Open(clk, fsys, kvs.Options{
		MemtableBytes:   256 << 10,
		BaseLevelBytes:  2 << 20,
		TargetFileBytes: 1 << 20,
		MaxLevels:       4,
	})
}

type dbBenchResult struct {
	opsPerSec float64
	p99       time.Duration
}

// dbKey formats db_bench's 16-byte keys.
func dbKey(i int64) []byte { return []byte(fmt.Sprintf("%016d", i)) }

// runDBBench reproduces Figure 13: fillseq, fillrandom, overwrite and
// readwhilewriting at value sizes 4000 and 8000 bytes, on both stacks,
// reporting normalized throughput and p99 latency.
func runDBBench(w io.Writer, quick bool) error {
	sc := appScale(quick)
	valueSizes := []int{4000, 8000}
	nOps := int64(4000)
	if quick {
		valueSizes = []int{4000}
		nOps = 400
	}

	for _, vs := range valueSizes {
		fmt.Fprintf(w, "\n-- value size %d bytes --\n", vs)
		t := newTable(w, "workload", "md ops/s", "rz ops/s", "rz/md", "md p99", "rz p99")
		for _, wl := range []string{"fillseq", "fillrandom", "overwrite", "readwhilewriting"} {
			var res [2]dbBenchResult
			for i, kind := range []string{"mdraid", "raizn"} {
				clk := vclock.New()
				var r dbBenchResult
				var err error
				clk.Run(func() {
					var db *kvs.DB
					db, err = newAppStack(clk, sc, kind)
					if err != nil {
						return
					}
					r, err = runDBWorkload(clk, db, wl, vs, nOps)
					db.Close()
				})
				if err != nil {
					return err
				}
				res[i] = r
			}
			t.row(wl, f1(res[0].opsPerSec), f1(res[1].opsPerSec),
				f2(res[1].opsPerSec/res[0].opsPerSec),
				res[0].p99.String(), res[1].p99.String())
		}
	}
	fmt.Fprintln(w, "\npaper: RAIZN within ~10% of mdraid on throughput and p99 across workloads.")
	return nil
}

// runDBWorkload executes one db_bench workload. The key space is sized so
// overwrite/readwhilewriting rewrite existing keys (forcing compaction
// and, on the FTL stack, device GC).
func runDBWorkload(clk *vclock.Clock, db *kvs.DB, wl string, valueSize int, nOps int64) (dbBenchResult, error) {
	rng := rand.New(rand.NewSource(99))
	value := make([]byte, valueSize)
	rng.Read(value)
	keySpace := nOps

	hist := stats.NewHistogram()
	var count stats.Counter
	op := func(fn func() error) error {
		t0 := clk.Now()
		if err := fn(); err != nil {
			return err
		}
		hist.Record(clk.Now() - t0)
		count.Add(1)
		return nil
	}
	start := clk.Now()

	switch wl {
	case "fillseq":
		for i := int64(0); i < nOps; i++ {
			if err := op(func() error { return db.Put(dbKey(i), value) }); err != nil {
				return dbBenchResult{}, err
			}
		}
	case "fillrandom":
		for i := int64(0); i < nOps; i++ {
			k := rng.Int63n(keySpace)
			if err := op(func() error { return db.Put(dbKey(k), value) }); err != nil {
				return dbBenchResult{}, err
			}
		}
	case "overwrite":
		// Pre-fill, then overwrite random keys (paper: overwrite runs
		// after fillrandom without resetting).
		for i := int64(0); i < keySpace; i++ {
			if err := db.Put(dbKey(i), value); err != nil {
				return dbBenchResult{}, err
			}
		}
		db.WaitIdle()
		start = clk.Now()
		for i := int64(0); i < nOps; i++ {
			k := rng.Int63n(keySpace)
			if err := op(func() error { return db.Put(dbKey(k), value) }); err != nil {
				return dbBenchResult{}, err
			}
		}
	case "readwhilewriting":
		for i := int64(0); i < keySpace; i++ {
			if err := db.Put(dbKey(i), value); err != nil {
				return dbBenchResult{}, err
			}
		}
		db.WaitIdle()
		start = clk.Now()
		// One writer thread, eight reader threads (paper setup).
		stop := false
		writerDone := clk.NewFuture()
		clk.Go(func() {
			wrng := rand.New(rand.NewSource(7))
			for !stop {
				if err := db.Put(dbKey(wrng.Int63n(keySpace)), value); err != nil {
					break
				}
			}
			writerDone.Complete(nil)
		})
		wg := clk.NewWaitGroup()
		perReader := nOps / 8
		for r := 0; r < 8; r++ {
			r := r
			wg.Add(1)
			clk.Go(func() {
				defer wg.Done()
				rrng := rand.New(rand.NewSource(int64(r) + 100))
				for i := int64(0); i < perReader; i++ {
					op(func() error {
						_, err := db.Get(dbKey(rrng.Int63n(keySpace)))
						if err == kvs.ErrNotFound {
							err = nil
						}
						return err
					})
				}
			})
		}
		wg.Wait()
		stop = true
		writerDone.Wait()
	default:
		return dbBenchResult{}, fmt.Errorf("unknown workload %s", wl)
	}

	elapsed := clk.Now() - start
	_, ops := count.Bytes(), count.Ops()
	return dbBenchResult{
		opsPerSec: float64(ops) / elapsed.Seconds(),
		p99:       hist.Percentile(99),
	}, nil
}

// runOLTP reproduces Figure 14: the three sysbench OLTP mixes at 64 and
// 128 client threads on both stacks.
func runOLTP(w io.Writer, quick bool) error {
	sc := appScale(quick)
	cfg := oltp.Config{Tables: 8, RowsPerTable: 400, RowBytes: 190}
	threads := []int{64, 128}
	dur := 300 * time.Millisecond
	if quick {
		cfg = oltp.Config{Tables: 2, RowsPerTable: 100, RowBytes: 190}
		threads = []int{16}
		dur = 50 * time.Millisecond
	}

	for _, wl := range []oltp.Workload{oltp.ReadOnly, oltp.WriteOnly, oltp.ReadWrite} {
		fmt.Fprintf(w, "\n-- %s --\n", wl)
		t := newTable(w, "threads", "md TPS", "rz TPS", "rz/md", "md avg", "rz avg", "md p95", "rz p95")
		for _, th := range threads {
			var res [2]oltp.Result
			for i, kind := range []string{"mdraid", "raizn"} {
				clk := vclock.New()
				var err error
				clk.Run(func() {
					var db *kvs.DB
					db, err = newAppStack(clk, sc, kind)
					if err != nil {
						return
					}
					if err = oltp.Prepare(db, cfg); err != nil {
						return
					}
					db.WaitIdle()
					res[i] = oltp.Run(clk, db, cfg, wl, th, dur, int64(th))
					db.Close()
				})
				if err != nil {
					return err
				}
			}
			ratio := 0.0
			if res[0].TPS > 0 {
				ratio = res[1].TPS / res[0].TPS
			}
			t.row(fmt.Sprintf("%d", th), f1(res[0].TPS), f1(res[1].TPS), f2(ratio),
				res[0].AvgLatency.String(), res[1].AvgLatency.String(),
				res[0].P95Latency.String(), res[1].P95Latency.String())
		}
	}
	fmt.Fprintln(w, "\npaper: RAIZN within error of (or better than) mdraid on TPS, avg and p95 latency.")
	return nil
}
