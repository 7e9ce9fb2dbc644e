package zns

import (
	"bytes"
	"testing"
	"time"

	"raizn/internal/obs"
	"raizn/internal/vclock"
)

// submitBatch prepares cmds on d alone and delivers their completions.
func submitBatch(d *Device, cmds []Cmd) {
	RunCompletions(d.Clock(), d.PrepareBatch(cmds, nil), nil)
}

// awaitBatch waits for every command's future and returns the first error.
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

// TestBatchEquivalence submits one batch of writes — one continuing
// another in the same zone, one filling a zone, one opening another — and
// checks the device ends in exactly the state the same writes submitted one
// at a time produce: same zone states, same payloads, same counters, same
// virtual completion time: a batch changes host cost only.
func TestBatchEquivalence(t *testing.T) {
	cfg := testConfig()

	w0, w1 := pattern(cfg, 4, 0x11), pattern(cfg, 5, 0x22)
	full := pattern(cfg, int(cfg.ZoneCap), 0x33)
	w2 := pattern(cfg, 2, 0x44)
	writes := func(d *Device) []Cmd {
		return []Cmd{
			{Op: CmdWrite, Sector: 0, Data: w0},
			{Op: CmdWrite, Sector: 4, Data: w1},
			{Op: CmdWrite, Sector: d.ZoneStart(1), Data: full},
			{Op: CmdWrite, Sector: d.ZoneStart(2), Data: w2},
		}
	}

	// Batched run.
	bc := vclock.New()
	bd := NewDevice(bc, cfg)
	var batched devSnapshot
	bc.Run(func() {
		cmds := writes(bd)
		submitBatch(bd, cmds)
		if err := awaitBatch(cmds); err != nil {
			t.Fatalf("batch: %v", err)
		}
		batched = snapshotDev(bd)
	})

	// Direct run: same commands, one at a time, issued concurrently the
	// way the batch issues them (all at the same virtual instant).
	dc := vclock.New()
	dd := NewDevice(dc, cfg)
	var direct devSnapshot
	dc.Run(func() {
		var futs []*vclock.Future
		for _, c := range writes(dd) {
			futs = append(futs, dd.Write(c.Sector, c.Data, 0))
		}
		for _, f := range futs {
			if err := f.Wait(); err != nil {
				t.Fatalf("direct: %v", err)
			}
		}
		direct = snapshotDev(dd)
	})

	compareDevSnapshots(t, batched, direct)
	if st := batched.zones[1].State; st != ZoneFull {
		t.Errorf("zone 1 after a batched fill = %v, want full", st)
	}
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
			{Op: CmdWrite, Sector: 0, Data: good[:cfg.SectorSize-1]}, // unaligned
			{Op: CmdWrite, Sector: d.NumSectors() + 64, Data: good},  // out of range
			{Op: CmdWrite, Sector: d.ZoneStart(1) + 7, Data: good},   // gap: not sequential
			{Op: CmdWrite, Sector: 2, Data: pattern(cfg, 1, 0x77)},   // accepted, continues zone 0
		}
		submitBatch(d, cmds)

		wantErr := []error{nil, ErrUnaligned, ErrOutOfRange, ErrNotSequential, nil}
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

// TestBatchPowerLossCompletions checks in-flight batched completions
// observe a device power cut: effects submitted before the cut but not
// yet delivered complete with ErrPowerLoss, mirroring the per-command
// schedule path's epoch check.
func TestBatchPowerLossCompletions(t *testing.T) {
	cfg := testConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		cmds := []Cmd{{Op: CmdWrite, Sector: 0, Data: pattern(cfg, 4, 0x3C)}}
		submitBatch(d, cmds)
		d.PowerLossAt(nil) // cut before the walker delivers the completion
		if err := cmds[0].Fut.Wait(); err != ErrPowerLoss {
			t.Errorf("write completion after power loss = %v, want ErrPowerLoss", err)
		}
	})
}
