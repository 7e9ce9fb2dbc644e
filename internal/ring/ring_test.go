package ring

import (
	"bytes"
	"testing"

	"raizn/internal/obs"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func testDev(clk *vclock.Clock) *zns.Device {
	cfg := zns.DefaultConfig()
	cfg.NumZones = 8
	cfg.ZoneSize = 64
	cfg.ZoneCap = 48
	return zns.NewDevice(clk, cfg)
}

func sectors(d *zns.Device, n int, tag byte) []byte {
	b := make([]byte, n*d.Config().SectorSize)
	for i := range b {
		b[i] = tag ^ byte(i)
	}
	return b
}

// TestBatchRoundTrip pushes SQEs for two devices through one batch,
// checks the flushed groups' outputs and the awaited payloads, and
// verifies the drain metrics count groups and SQEs.
func TestBatchRoundTrip(t *testing.T) {
	clk := vclock.New()
	reg := obs.NewRegistry()
	clk.Run(func() {
		d0, d1 := testDev(clk), testDev(clk)
		set := NewSet(clk, reg, "t", 2)
		b := set.Batch()

		w0 := sectors(d0, 2, 0xA0)
		b.Push(zns.Cmd{Op: zns.CmdWrite, Sector: 0, Data: w0})
		b.Push(zns.Cmd{Op: zns.CmdWrite, Sector: d0.ZoneStart(1), Data: sectors(d0, 1, 0xA1)})
		if !b.Pending() {
			t.Fatal("staged SQEs not pending")
		}
		g0 := b.Flush(d0, 0)
		if b.Pending() {
			t.Fatal("pending after flush")
		}
		if len(g0) != 2 {
			t.Fatalf("group 0 has %d SQEs, want 2", len(g0))
		}
		if g0[1].Err != nil || g0[1].Done <= clk.Now() {
			t.Errorf("zone-1 write: Err %v, Done %v, want accepted and pending", g0[1].Err, g0[1].Done)
		}

		w1 := sectors(d1, 3, 0xB0)
		b.Push(zns.Cmd{Op: zns.CmdWrite, Sector: 0, Data: w1})
		g1 := b.Flush(d1, 1)

		futs := []*vclock.Future{g0[0].Fut, g0[1].Fut, g1[0].Fut}
		b.Submit()
		for i, f := range futs {
			if err := f.Wait(); err != nil {
				t.Fatalf("cmd %d: %v", i, err)
			}
		}

		got := make([]byte, len(w1))
		if err := d1.Read(0, got).Wait(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, w1) {
			t.Error("device 1 payload does not match the batched write")
		}
	})

	snap := reg.Snapshot()
	check := func(name string, want int64) {
		got, ok := snap.Counters[name]
		if !ok {
			t.Errorf("metric %s not registered", name)
			return
		}
		if got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	check(obs.LabeledName("ring_batches_total", "array", "t"), 2)
	check(obs.LabeledName("ring_sqes_total", "array", "t"), 3)
}

// TestBatchRecycle checks Submit returns the batch to the pool in a
// reusable state: a second acquisition after the walker finishes starts
// empty and works.
func TestBatchRecycle(t *testing.T) {
	clk := vclock.New()
	set := NewSet(clk, obs.NewRegistry(), "", 1)
	clk.Run(func() {
		d := testDev(clk)
		for round := 0; round < 3; round++ {
			b := set.Batch()
			if b.Pending() {
				t.Fatalf("round %d: recycled batch has pending SQEs", round)
			}
			b.Push(zns.Cmd{Op: zns.CmdWrite, Sector: int64(round), Data: sectors(d, 1, byte(round))})
			g := b.Flush(d, 0)
			fut := g[0].Fut
			b.Submit()
			if err := fut.Wait(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	})
}

// TestEmptyFlushAndSubmit checks the degenerate paths: flushing with no
// staged SQEs is a no-op, and a batch with nothing flushed still
// recycles through Submit.
func TestEmptyFlushAndSubmit(t *testing.T) {
	clk := vclock.New()
	set := NewSet(clk, obs.NewRegistry(), "", 1)
	clk.Run(func() {
		d := testDev(clk)
		b := set.Batch()
		if g := b.Flush(d, 0); g != nil {
			t.Errorf("empty flush returned %d SQEs", len(g))
		}
		b.Submit()
	})
}
