package mdraid

import (
	"bytes"
	"math/rand"
	"testing"

	"raizn/internal/blockdev"
	"raizn/internal/vclock"
)

func testDevConfig() blockdev.Config {
	cfg := blockdev.DefaultConfig()
	cfg.NumSectors = 2048 // 8 MiB per device
	cfg.PagesPerBlock = 64
	return cfg
}

func runVol(t *testing.T, fn func(c *vclock.Clock, v *Volume, devs []*blockdev.Device)) {
	t.Helper()
	c := vclock.New()
	c.Run(func() {
		devs := make([]*blockdev.Device, 5)
		for i := range devs {
			devs[i] = blockdev.NewDevice(c, testDevConfig())
		}
		v, err := New(c, devs, 16)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		fn(c, v, devs)
	})
}

func lbaPattern(v *Volume, lba int64, nSectors int) []byte {
	ss := v.SectorSize()
	out := make([]byte, nSectors*ss)
	for i := 0; i < nSectors; i++ {
		cur := lba + int64(i)
		for j := 0; j < ss; j++ {
			out[i*ss+j] = byte(cur) ^ byte(j) ^ byte(cur>>8)
		}
	}
	return out
}

func mustWriteV(t *testing.T, v *Volume, lba int64, n int) {
	t.Helper()
	if err := v.Write(lba, lbaPattern(v, lba, n)); err != nil {
		t.Fatalf("Write(%d, %d): %v", lba, n, err)
	}
}

func checkReadV(t *testing.T, v *Volume, lba int64, n int) {
	t.Helper()
	buf := make([]byte, n*v.SectorSize())
	if err := v.Read(lba, buf); err != nil {
		t.Fatalf("Read(%d, %d): %v", lba, n, err)
	}
	if !bytes.Equal(buf, lbaPattern(v, lba, n)) {
		t.Fatalf("Read(%d, %d): mismatch", lba, n)
	}
}

func TestGeometry(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		// 2048 sectors per device, 4 data devices => 8192 sectors.
		if v.NumSectors() != 8192 {
			t.Errorf("NumSectors = %d, want 8192", v.NumSectors())
		}
	})
}

func TestWriteReadRoundTrip(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 64) // full stripe
		checkReadV(t, v, 0, 64)
	})
}

func TestSubStripeWriteRMW(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 64) // establish a stripe
		// Small overwrite inside it (mdraid allows overwrites).
		if err := v.Write(10, lbaPattern(v, 1000, 4)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4*v.SectorSize())
		if err := v.Read(10, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, lbaPattern(v, 1000, 4)) {
			t.Error("overwrite not visible")
		}
	})
}

func TestRandomOverwritesConsistent(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		rng := rand.New(rand.NewSource(3))
		ss := v.SectorSize()
		shadow := make([]byte, v.NumSectors()*int64(ss))
		for i := 0; i < 400; i++ {
			n := 1 + rng.Intn(32)
			lba := rng.Int63n(v.NumSectors() - int64(n) + 1)
			data := make([]byte, n*ss)
			rng.Read(data)
			if err := v.Write(lba, data); err != nil {
				t.Fatal(err)
			}
			copy(shadow[lba*int64(ss):], data)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(shadow))
		if err := v.Read(0, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, shadow) {
			t.Error("array state diverged from shadow")
		}
	})
}

func TestParityInvariantAfterFlush(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 100; i++ {
			n := 1 + rng.Intn(20)
			lba := rng.Int63n(v.NumSectors() - int64(n) + 1)
			mustWriteV(t, v, lba, n)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		// XOR across each stripe's device rows must be zero.
		ss := v.SectorSize()
		chunkBytes := int(v.chunk) * ss
		for s := int64(0); s < v.perDev; s++ {
			acc := make([]byte, chunkBytes)
			for i := 0; i < v.n; i++ {
				row := make([]byte, chunkBytes)
				if err := devs[i].Read(s*v.chunk, row).Wait(); err != nil {
					t.Fatal(err)
				}
				for j := range acc {
					acc[j] ^= row[j]
				}
			}
			for j, b := range acc {
				if b != 0 {
					t.Fatalf("stripe %d parity invariant violated at byte %d", s, j)
				}
			}
		}
	})
}

func TestDegradedRead(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 512)
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := v.FailDevice(2); err != nil {
			t.Fatal(err)
		}
		checkReadV(t, v, 0, 512)
		checkReadV(t, v, 13, 77)
	})
}

func TestDegradedWrite(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 128)
		v.Flush()
		v.FailDevice(1)
		mustWriteV(t, v, 128, 64)                               // full stripe degraded
		if err := v.Write(5, lbaPattern(v, 5, 3)); err != nil { // sub-stripe degraded
			t.Fatal(err)
		}
		v.Flush()
		checkReadV(t, v, 0, 192)
	})
}

func TestResyncRestoresRedundancy(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 256)
		v.Flush()
		v.FailDevice(0)
		stats, err := v.Resync(blockdev.NewDevice(c, testDevConfig()))
		if err != nil {
			t.Fatalf("Resync: %v", err)
		}
		// mdraid resyncs the whole device regardless of valid data.
		want := devs[1].Config().NumSectors * int64(v.SectorSize())
		if stats.BytesWritten != want {
			t.Errorf("resync wrote %d bytes, want full device %d", stats.BytesWritten, want)
		}
		if v.Degraded() != -1 {
			t.Error("still degraded after resync")
		}
		checkReadV(t, v, 0, 256)
		// Redundancy restored.
		v.FailDevice(3)
		checkReadV(t, v, 0, 256)
	})
}

func TestResyncTimeConstantRegardlessOfData(t *testing.T) {
	measure := func(fillSectors int64) int64 {
		var elapsed int64
		c := vclock.New()
		c.Run(func() {
			devs := make([]*blockdev.Device, 5)
			for i := range devs {
				devs[i] = blockdev.NewDevice(c, testDevConfig())
			}
			v, err := New(c, devs, 16)
			if err != nil {
				t.Fatal(err)
			}
			for lba := int64(0); lba < fillSectors; lba += 64 {
				mustWriteV(t, v, lba, 64)
			}
			v.Flush()
			v.FailDevice(0)
			stats, err := v.Resync(blockdev.NewDevice(c, testDevConfig()))
			if err != nil {
				t.Fatal(err)
			}
			elapsed = int64(stats.Elapsed)
		})
		return elapsed
	}
	t1 := measure(64)
	t2 := measure(4096)
	ratio := float64(t2) / float64(t1)
	if ratio > 1.5 {
		t.Errorf("mdraid resync time should not scale with data: %d vs %d", t1, t2)
	}
}

func TestFullStripeAvoidsReads(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 64)
		v.Flush()
		var readBefore int64
		for _, d := range devs {
			_, r, _, _ := d.Counters()
			readBefore += r
		}
		if readBefore != 0 {
			t.Errorf("full-stripe write performed %d bytes of reads", readBefore)
		}
		// A 4 KiB update is an RMW: needs reads.
		if err := v.Write(3, lbaPattern(v, 3, 1)); err != nil {
			t.Fatal(err)
		}
		v.Flush()
		var readAfter int64
		for _, d := range devs {
			_, r, _, _ := d.Counters()
			readAfter += r
		}
		if readAfter == 0 {
			t.Error("sub-stripe write performed no reads (RMW expected)")
		}
	})
}

func TestOutOfRangeAndUnaligned(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		if err := v.Write(v.NumSectors(), lbaPattern(v, 0, 1)); err != ErrOutOfRange {
			t.Errorf("oob write error = %v", err)
		}
		if err := v.Write(0, make([]byte, 5)); err != ErrUnaligned {
			t.Errorf("unaligned write error = %v", err)
		}
	})
}

func TestReadDirtyCacheOverlay(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 64)
		v.Flush()
		// Dirty a few sectors without flushing; read a range that mixes
		// dirty and clean sectors.
		fut := v.SubmitWrite(4, lbaPattern(v, 500, 2))
		buf := make([]byte, 8*v.SectorSize())
		if err := v.Read(0, buf); err != nil {
			t.Fatal(err)
		}
		ss := v.SectorSize()
		want := append([]byte{}, lbaPattern(v, 0, 8)...)
		copy(want[4*ss:6*ss], lbaPattern(v, 500, 2))
		if !bytes.Equal(buf, want) {
			t.Error("mixed dirty/clean read incorrect")
		}
		fut.Wait()
	})
}

func TestWritesDuringResyncStayConsistent(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 1024)
		v.Flush()
		v.FailDevice(2)

		done := c.NewFuture()
		c.Go(func() {
			_, err := v.Resync(blockdev.NewDevice(c, testDevConfig()))
			done.Complete(err)
		})
		// Concurrent writes and reads while the resync runs.
		for i := int64(0); i < 30; i++ {
			mustWriteV(t, v, 1024+i*8, 8)
			checkReadV(t, v, i*8, 8)
		}
		if err := done.Wait(); err != nil {
			t.Fatalf("resync: %v", err)
		}
		if err := v.Flush(); err != nil {
			t.Fatal(err)
		}
		checkReadV(t, v, 0, 1024)
		checkReadV(t, v, 1024, 240)
		// Redundancy restored: fail another device and verify the data
		// written during the resync.
		v.FailDevice(0)
		checkReadV(t, v, 0, 1024)
		checkReadV(t, v, 1024, 240)
	})
}

func TestReadsDuringResyncAvoidStaleReplacement(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		mustWriteV(t, v, 0, 512)
		v.Flush()
		v.FailDevice(1)
		done := c.NewFuture()
		c.Go(func() {
			_, err := v.Resync(blockdev.NewDevice(c, testDevConfig()))
			done.Complete(err)
		})
		// Reads racing the resync must never observe the replacement's
		// unwritten chunks.
		for i := 0; i < 20; i++ {
			checkReadV(t, v, int64(i*25), 25)
		}
		if err := done.Wait(); err != nil {
			t.Fatal(err)
		}
		checkReadV(t, v, 0, 512)
	})
}

func TestJournalClosesWriteHole(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		jcfg := testDevConfig()
		jdev := blockdev.NewDevice(c, jcfg)
		v.AttachJournal(jdev)

		mustWriteV(t, v, 0, 256)
		if err := v.Write(7, lbaPattern(v, 900, 3)); err != nil { // RMW path
			t.Fatal(err)
		}
		v.Flush()
		checkReadV(t, v, 0, 7)
		// The journal device must have absorbed writes.
		w, _, _, _ := jdev.Counters()
		if w == 0 {
			t.Fatal("journal device never written")
		}
		// Data still correct and redundant.
		buf := make([]byte, 3*v.SectorSize())
		if err := v.Read(7, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, lbaPattern(v, 900, 3)) {
			t.Error("journaled overwrite lost")
		}
		v.FailDevice(2)
		checkReadV(t, v, 0, 7)
	})
}

func TestJournalWrapsAround(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*blockdev.Device) {
		jcfg := testDevConfig()
		jcfg.NumSectors = 1024 // small journal: must wrap many times
		jdev := blockdev.NewDevice(c, jcfg)
		v.AttachJournal(jdev)
		for pass := 0; pass < 3; pass++ {
			mustWriteV(t, v, 0, 1024)
			v.Flush()
		}
		checkReadV(t, v, 0, 1024)
	})
}

func TestJournalCostMeasurable(t *testing.T) {
	measure := func(withJournal bool) int64 {
		var elapsed int64
		c := vclock.New()
		c.Run(func() {
			devs := make([]*blockdev.Device, 5)
			for i := range devs {
				devs[i] = blockdev.NewDevice(c, testDevConfig())
			}
			v, err := New(c, devs, 16)
			if err != nil {
				t.Fatal(err)
			}
			if withJournal {
				v.AttachJournal(blockdev.NewDevice(c, testDevConfig()))
			}
			t0 := c.Now()
			mustWriteV(t, v, 0, 2048)
			v.Flush()
			elapsed = int64(c.Now() - t0)
		})
		return elapsed
	}
	plain := measure(false)
	journaled := measure(true)
	if journaled <= plain {
		t.Errorf("journal should cost throughput: %d vs %d", journaled, plain)
	}
}
