package kvs

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"raizn/internal/fio"
	"raizn/internal/lfs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// newTestFS builds an lfs filesystem over a RAIZN volume big enough for
// compaction churn.
func newTestFS(t *testing.T, c *vclock.Clock) *lfs.FS {
	t.Helper()
	cfg := zns.DefaultConfig()
	cfg.NumZones = 24
	cfg.ZoneSize = 160
	cfg.ZoneCap = 128
	cfg.MaxOpenZones = 8 // 5 open logical zones beside the 3 metadata zones
	cfg.MaxActiveZones = 24
	devs := make([]*zns.Device, 5)
	for i := range devs {
		devs[i] = zns.NewDevice(c, cfg)
	}
	v, err := raizn.Create(c, devs, raizn.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fsys, err := lfs.Format(c, fio.RaiznTarget{V: v})
	if err != nil {
		t.Fatal(err)
	}
	return fsys
}

func smallOpts() Options {
	return Options{
		MemtableBytes:   8 << 10,
		L0Files:         3,
		BaseLevelBytes:  32 << 10,
		TargetFileBytes: 16 << 10,
		MaxLevels:       4,
	}
}

func runDB(t *testing.T, opt Options, fn func(c *vclock.Clock, db *DB, fsys *lfs.FS)) {
	t.Helper()
	c := vclock.New()
	c.Run(func() {
		fsys := newTestFS(t, c)
		db, err := Open(c, fsys, opt)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		fn(c, db, fsys)
	})
}

func key(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }

func val(i, size int) []byte {
	v := make([]byte, size)
	for j := range v {
		v[j] = byte(i) ^ byte(j) ^ byte(i>>8)
	}
	return v
}

func TestPutGet(t *testing.T) {
	runDB(t, smallOpts(), func(c *vclock.Clock, db *DB, fsys *lfs.FS) {
		if err := db.Put(key(1), val(1, 100)); err != nil {
			t.Fatal(err)
		}
		got, err := db.Get(key(1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val(1, 100)) {
			t.Error("value mismatch")
		}
		if _, err := db.Get(key(2)); err != ErrNotFound {
			t.Errorf("missing key error = %v", err)
		}
		db.Close()
	})
}

func TestOverwriteLatestWins(t *testing.T) {
	runDB(t, smallOpts(), func(c *vclock.Clock, db *DB, fsys *lfs.FS) {
		db.Put(key(7), val(1, 50))
		db.Put(key(7), val(2, 60))
		got, err := db.Get(key(7))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, val(2, 60)) {
			t.Error("overwrite not visible")
		}
		db.Close()
	})
}

func TestDeleteTombstone(t *testing.T) {
	runDB(t, smallOpts(), func(c *vclock.Clock, db *DB, fsys *lfs.FS) {
		db.Put(key(3), val(3, 40))
		if err := db.Flush(); err != nil { // push it into an SST
			t.Fatal(err)
		}
		db.Delete(key(3))
		if _, err := db.Get(key(3)); err != ErrNotFound {
			t.Errorf("deleted key error = %v", err)
		}
		// The tombstone must shadow the SST copy across a flush too.
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Get(key(3)); err != ErrNotFound {
			t.Errorf("deleted key after flush error = %v", err)
		}
		db.Close()
	})
}

func TestFlushAndCompactionPreserveData(t *testing.T) {
	runDB(t, smallOpts(), func(c *vclock.Clock, db *DB, fsys *lfs.FS) {
		const n = 400
		for i := 0; i < n; i++ {
			if err := db.Put(key(i), val(i, 200)); err != nil {
				t.Fatalf("put %d: %v", i, err)
			}
		}
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		if db.FlushCount == 0 {
			t.Error("no memtable flush happened")
		}
		if db.CompactCount == 0 {
			t.Error("no compaction happened")
		}
		for i := 0; i < n; i++ {
			got, err := db.Get(key(i))
			if err != nil {
				t.Fatalf("get %d: %v", i, err)
			}
			if !bytes.Equal(got, val(i, 200)) {
				t.Fatalf("value %d mismatch", i)
			}
		}
		db.Close()
	})
}

func TestRandomWorkloadAgainstShadowMap(t *testing.T) {
	runDB(t, smallOpts(), func(c *vclock.Clock, db *DB, fsys *lfs.FS) {
		rng := rand.New(rand.NewSource(11))
		shadow := map[string][]byte{}
		for op := 0; op < 1500; op++ {
			i := rng.Intn(200)
			switch rng.Intn(10) {
			case 0:
				db.Delete(key(i))
				delete(shadow, string(key(i)))
			default:
				v := val(rng.Int(), 50+rng.Intn(300))
				db.Put(key(i), v)
				shadow[string(key(i))] = v
			}
		}
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			want, exists := shadow[string(key(i))]
			got, err := db.Get(key(i))
			switch {
			case exists && err != nil:
				t.Fatalf("key %d: unexpected error %v", i, err)
			case exists && !bytes.Equal(got, want):
				t.Fatalf("key %d: value mismatch", i)
			case !exists && err != ErrNotFound:
				t.Fatalf("key %d: expected ErrNotFound, got %v", i, err)
			}
		}
		db.Close()
	})
}

func TestScan(t *testing.T) {
	runDB(t, smallOpts(), func(c *vclock.Clock, db *DB, fsys *lfs.FS) {
		for i := 0; i < 100; i++ {
			db.Put(key(i), val(i, 100))
		}
		db.Flush()
		for i := 100; i < 120; i++ { // some still in memtable
			db.Put(key(i), val(i, 100))
		}
		db.Delete(key(55))
		kvs, err := db.Scan(string(key(50)), 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(kvs) != 10 {
			t.Fatalf("scan returned %d entries", len(kvs))
		}
		// 55 was deleted: expect 50,51,52,53,54,56,57,58,59,60.
		want := []int{50, 51, 52, 53, 54, 56, 57, 58, 59, 60}
		for i, kv := range kvs {
			if kv.Key != string(key(want[i])) {
				t.Fatalf("scan[%d] = %s, want %s", i, kv.Key, key(want[i]))
			}
			if !bytes.Equal(kv.Value, val(want[i], 100)) {
				t.Fatalf("scan[%d] value mismatch", i)
			}
		}
		db.Close()
	})
}

func TestReopenRecoversFromManifest(t *testing.T) {
	runDB(t, smallOpts(), func(c *vclock.Clock, db *DB, fsys *lfs.FS) {
		for i := 0; i < 150; i++ {
			db.Put(key(i), val(i, 150))
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(c, fsys, smallOpts())
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for i := 0; i < 150; i++ {
			got, err := db2.Get(key(i))
			if err != nil {
				t.Fatalf("get %d after reopen: %v", i, err)
			}
			if !bytes.Equal(got, val(i, 150)) {
				t.Fatalf("value %d mismatch after reopen", i)
			}
		}
		// Writes continue with increasing sequence numbers.
		db2.Put(key(3), val(999, 80))
		got, _ := db2.Get(key(3))
		if !bytes.Equal(got, val(999, 80)) {
			t.Error("post-reopen overwrite lost")
		}
		db2.Close()
	})
}

func TestSyncWritesSurviveWALReplay(t *testing.T) {
	opt := smallOpts()
	opt.SyncWrites = true
	runDB(t, opt, func(c *vclock.Clock, db *DB, fsys *lfs.FS) {
		for i := 0; i < 10; i++ {
			if err := db.Put(key(i), val(i, 60)); err != nil {
				t.Fatal(err)
			}
		}
		// Simulate a crash: do NOT close; reopen replays the WAL.
		db.mu.Lock()
		db.closed = true // stop the worker without flushing
		db.cond.Broadcast()
		db.mu.Unlock()

		db2, err := Open(c, fsys, opt)
		if err != nil {
			t.Fatalf("reopen after crash: %v", err)
		}
		for i := 0; i < 10; i++ {
			got, err := db2.Get(key(i))
			if err != nil {
				t.Fatalf("get %d after WAL replay: %v", i, err)
			}
			if !bytes.Equal(got, val(i, 60)) {
				t.Fatalf("value %d mismatch after WAL replay", i)
			}
		}
		db2.Close()
	})
}

func TestTombstonesPurgedAtBottomLevel(t *testing.T) {
	runDB(t, smallOpts(), func(c *vclock.Clock, db *DB, fsys *lfs.FS) {
		for i := 0; i < 100; i++ {
			db.Put(key(i), val(i, 200))
		}
		for i := 0; i < 100; i++ {
			db.Delete(key(i))
		}
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			if _, err := db.Get(key(i)); err != ErrNotFound {
				t.Fatalf("key %d resurrected: %v", i, err)
			}
		}
		db.Close()
	})
}

func TestConcurrentReadersDuringWrites(t *testing.T) {
	runDB(t, smallOpts(), func(c *vclock.Clock, db *DB, fsys *lfs.FS) {
		// Preload so readers always have something to find.
		const n = 120
		for i := 0; i < n; i++ {
			db.Put(key(i), val(i, 120))
		}
		stop := false
		wg := c.NewWaitGroup()
		// One writer overwriting keys with version-tagged values.
		wg.Add(1)
		c.Go(func() {
			defer wg.Done()
			for round := 1; round <= 8; round++ {
				for i := 0; i < n; i++ {
					if err := db.Put(key(i), val(i+1000*round, 120)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}
			stop = true
		})
		// Four readers validating that values are always well-formed
		// (some version of the key, never torn).
		for r := 0; r < 4; r++ {
			r := r
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				for !stop {
					i := rng.Intn(n)
					got, err := db.Get(key(i))
					if err != nil {
						t.Errorf("get %d: %v", i, err)
						return
					}
					if len(got) != 120 {
						t.Errorf("torn value: %d bytes", len(got))
						return
					}
					// Memtable hits cost no virtual time; pace the loop
					// so the simulation's clock can advance.
					c.Sleep(5 * time.Microsecond)
				}
			})
		}
		wg.Wait()
		if err := db.WaitIdle(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got, err := db.Get(key(i))
			if err != nil {
				t.Fatalf("final get %d: %v", i, err)
			}
			if !bytes.Equal(got, val(i+8000, 120)) {
				t.Fatalf("key %d: final value mismatch", i)
			}
		}
		db.Close()
	})
}
