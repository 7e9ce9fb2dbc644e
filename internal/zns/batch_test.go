package zns

import (
	"bytes"
	"testing"
	"time"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// await waits for every command's future and returns the first error.
func awaitBatch(cmds []Cmd) error {
	var first error
	for i := range cmds {
		if err := cmds[i].Fut.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// devSnapshot captures the externally observable device state: zone
// descriptors, payload contents up to each write pointer, and the
// cumulative counters. Two devices that ran equivalent workloads must
// snapshot identically.
type devSnapshot struct {
	zones  []ZoneDesc
	data   [][]byte
	wb, rb int64
	fl, rs int64
	now    time.Duration
}

func snapshotDev(d *Device) devSnapshot {
	s := devSnapshot{zones: d.ReportZones(), now: d.Clock().Now()}
	s.wb, s.rb, s.fl, s.rs = d.Counters()
	for _, z := range s.zones {
		n := int(z.WP - d.ZoneStart(z.Index))
		if n <= 0 {
			s.data = append(s.data, nil)
			continue
		}
		buf := make([]byte, n*d.Config().SectorSize)
		if err := d.Read(d.ZoneStart(z.Index), buf).Wait(); err != nil {
			// Beyond-WP or discarded payloads read as an error marker.
			buf = []byte{0xFF}
		}
		s.data = append(s.data, buf)
	}
	return s
}

func compareDevSnapshots(t *testing.T, batched, direct devSnapshot) {
	t.Helper()
	if batched.now != direct.now {
		t.Errorf("virtual time diverged: batched %v, direct %v", batched.now, direct.now)
	}
	if batched.wb != direct.wb || batched.rb != direct.rb || batched.fl != direct.fl || batched.rs != direct.rs {
		t.Errorf("counters diverged: batched %d/%d/%d/%d, direct %d/%d/%d/%d",
			batched.wb, batched.rb, batched.fl, batched.rs, direct.wb, direct.rb, direct.fl, direct.rs)
	}
	for i := range batched.zones {
		if batched.zones[i] != direct.zones[i] {
			t.Errorf("zone %d diverged: batched %+v, direct %+v", i, batched.zones[i], direct.zones[i])
		}
		if !bytes.Equal(batched.data[i], direct.data[i]) {
			t.Errorf("zone %d payload diverged", i)
		}
	}
}

// TestBatchEquivalence submits one batch covering every command type and
// checks the device ends in exactly the state an equivalent sequence of
// individual submissions produces: same zone states, same payloads, same
// counters, same virtual completion time: a batch changes host cost only.
func TestBatchEquivalence(t *testing.T) {
	cfg := testConfig()

	w0 := pattern(cfg, 4, 0x11)
	w1a, w1b := pattern(cfg, 2, 0x22), pattern(cfg, 3, 0x33)
	ap := pattern(cfg, 2, 0x44)

	// Batched run.
	bc := vclock.New()
	bd := NewDevice(bc, cfg)
	var batched devSnapshot
	bc.Run(func() {
		// Seed zone 3 so the batch can reset something non-empty.
		mustWrite(t, bd, bd.ZoneStart(3), pattern(cfg, 2, 0x55), 0)
		rbuf := make([]byte, 4*cfg.SectorSize)
		cmds := []Cmd{
			{Op: CmdWrite, Sector: 0, Data: w0},
			{Op: CmdWritev, Sector: 4, Segs: [][]byte{w1a, w1b}},
			{Op: CmdAppend, Zone: 1, Data: ap},
			{Op: CmdFlush},
			{Op: CmdRead, Sector: 0, Data: rbuf},
			{Op: CmdReset, Zone: 3},
			{Op: CmdFinish, Zone: 2},
		}
		bd.SubmitBatch(cmds)
		if err := awaitBatch(cmds); err != nil {
			t.Fatalf("batch: %v", err)
		}
		if got := cmds[2].Sector; got != bd.ZoneStart(1) {
			t.Errorf("append sector = %d, want zone-1 start %d", got, bd.ZoneStart(1))
		}
		want := append(append([]byte(nil), w0...), append(w1a, w1b...)...)[:len(rbuf)]
		if !bytes.Equal(rbuf, want) {
			t.Error("batched read returned wrong payload")
		}
		batched = snapshotDev(bd)
	})

	// Direct run: same commands, one at a time, issued concurrently the
	// way the batch issues them (all at the same virtual instant).
	dc := vclock.New()
	dd := NewDevice(dc, cfg)
	var direct devSnapshot
	dc.Run(func() {
		mustWrite(t, dd, dd.ZoneStart(3), pattern(cfg, 2, 0x55), 0)
		rbuf := make([]byte, 4*cfg.SectorSize)
		futs := []*vclock.Future{
			dd.Write(0, w0, 0),
			dd.Writev(4, [][]byte{w1a, w1b}, 0),
		}
		sec, fut := dd.Append(1, ap, 0)
		futs = append(futs, fut, dd.Flush(), dd.Read(0, rbuf), dd.ResetZone(3), dd.FinishZone(2))
		for _, f := range futs {
			if err := f.Wait(); err != nil {
				t.Fatalf("direct: %v", err)
			}
		}
		if sec != dd.ZoneStart(1) {
			t.Errorf("direct append sector = %d, want %d", sec, dd.ZoneStart(1))
		}
		direct = snapshotDev(dd)
	})

	compareDevSnapshots(t, batched, direct)
}

// TestBatchRejection checks the submit-time error contract: a rejected
// command carries Err and a pre-completed future, the accepted commands
// in the same batch still apply, and the drain hook's Arg reports only
// the accepted count.
func TestBatchRejection(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		var drains []int64
		d.AttachHook(func(p obs.HookPoint) {
			if p.Name == "zns.ring.drain" {
				drains = append(drains, p.Arg)
			}
		}, 0)

		good := pattern(cfg, 2, 0x66)
		cmds := []Cmd{
			{Op: CmdWrite, Sector: 0, Data: good},
			{Op: CmdWrite, Sector: 0, Data: good[:cfg.SectorSize-1]},                  // unaligned
			{Op: CmdWrite, Sector: d.NumSectors() + 64, Data: good},                   // out of range
			{Op: CmdWrite, Sector: d.ZoneStart(1) + 7, Data: good},                    // gap: not sequential
			{Op: CmdAppend, Zone: cfg.NumZones + 3, Data: good},                       // bad zone
			{Op: CmdWrite, Sector: 2, Data: pattern(cfg, 1, 0x77)},                    // accepted, continues zone 0
			{Op: CmdRead, Sector: d.ZoneStart(2), Data: make([]byte, cfg.SectorSize)}, // beyond WP of an empty zone
		}
		d.SubmitBatch(cmds)

		wantErr := []error{nil, ErrUnaligned, ErrOutOfRange, ErrNotSequential, ErrOutOfRange, nil, ErrReadBeyondWP}
		for i, want := range wantErr {
			if cmds[i].Err != want {
				t.Errorf("cmd %d: Err = %v, want %v", i, cmds[i].Err, want)
			}
			// Every command, rejected or not, must expose a waitable
			// future reporting the same outcome.
			if got := cmds[i].Fut.Wait(); got != want {
				t.Errorf("cmd %d: Fut.Wait() = %v, want %v", i, got, want)
			}
		}
		if len(drains) != 1 || drains[0] != 2 {
			t.Errorf("drain hook args = %v, want one crossing with accepted count 2", drains)
		}
		// The accepted writes landed despite their rejected neighbors.
		if got := mustRead(t, d, 0, 3); !bytes.Equal(got[:2*cfg.SectorSize], good) ||
			!bytes.Equal(got[2*cfg.SectorSize:], pattern(cfg, 1, 0x77)) {
			t.Error("accepted writes in mixed batch produced wrong payload")
		}
	})
}

// TestBatchAppendChain checks consecutive appends in one batch see each
// other's write-pointer advance: state applies at submit, in order, so
// the second append's assigned sector follows the first.
func TestBatchAppendChain(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		a, b := pattern(cfg, 2, 0x01), pattern(cfg, 3, 0x02)
		cmds := []Cmd{
			{Op: CmdAppend, Zone: 2, Data: a},
			{Op: CmdAppend, Zone: 2, Data: b},
		}
		d.SubmitBatch(cmds)
		if err := awaitBatch(cmds); err != nil {
			t.Fatal(err)
		}
		start := d.ZoneStart(2)
		if cmds[0].Sector != start || cmds[1].Sector != start+2 {
			t.Errorf("append sectors = %d,%d, want %d,%d", cmds[0].Sector, cmds[1].Sector, start, start+2)
		}
		got := mustRead(t, d, start, 5)
		if !bytes.Equal(got, append(append([]byte(nil), a...), b...)) {
			t.Error("chained appends produced wrong payload")
		}
	})
}

// TestBatchPowerLossCompletions checks in-flight batched completions
// observe a device power cut: effects submitted before the cut but not
// yet delivered complete with ErrPowerLoss, mirroring the per-command
// schedule path's epoch check.
func TestBatchPowerLossCompletions(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		cmds := []Cmd{{Op: CmdWrite, Sector: 0, Data: pattern(cfg, 4, 0x3C)}}
		d.SubmitBatch(cmds)
		d.PowerLossAt(nil) // cut before the walker delivers the completion
		if err := cmds[0].Fut.Wait(); err != ErrPowerLoss {
			t.Errorf("write completion after power loss = %v, want ErrPowerLoss", err)
		}
	})
}
