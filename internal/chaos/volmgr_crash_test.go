package chaos

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/volmgr"
	"raizn/internal/zns"
)

// TestVolmgrCrashMidBurst drives a multi-tenant burst through a volume
// sharded over two arrays, power-cuts every device of both arrays in
// the middle of the burst, and runs the per-array journal oracle on
// each crash snapshot: every surviving byte must be journal-explained,
// no zone may stay open, both arrays must mount writable, and no
// tenant's FUA-completed data may be lost.
func TestVolmgrCrashMidBurst(t *testing.T) {
	devCfg := zns.DefaultConfig()
	devCfg.NumZones = 8
	devCfg.ZoneSize = 160
	devCfg.ZoneCap = 128
	devCfg.MaxOpenZones = 8
	devCfg.MaxActiveZones = 10

	const (
		arrays  = 2
		tenants = 6
		chunk   = 16
	)

	clk := vclock.New()
	type arrayState struct {
		devs []*zns.Device
		jrn  *obs.Journal
		cfg  raizn.Config
	}
	var arrs [arrays]arrayState

	// Per volume-zone watermarks, maintained by the tenant goroutines:
	// Submitted advances before SubmitWrite, Durable after a FUA write's
	// future resolves. Both are conservative in the safe direction.
	var wmMu sync.Mutex
	durable := make(map[int]int64)
	submitted := make(map[int]int64)

	type crash struct {
		clones []*zns.Device
		clk    *vclock.Clock
		events []obs.Event
		drop   uint64
		// watermarks as of the crash instant: durable entries recorded
		// before the cut are persisted in the clones (FUA completes only
		// after the device persists), so the projection is exact-or-safe.
		durable   map[int]int64
		submitted map[int]int64
	}
	var crashes [arrays]crash
	var extents []volmgr.ExtentDesc

	clk.Run(func() {
		m := volmgr.NewManager(clk, volmgr.Config{})
		for a := 0; a < arrays; a++ {
			devs := make([]*zns.Device, 3)
			jrn := obs.NewJournal(clk, obs.JournalConfig{Capacity: 1 << 16})
			jrn.Enable()
			cfg := raizn.DefaultConfig()
			cfg.Metrics = m.Metrics()
			cfg.MetricsLabel = fmt.Sprintf("a%d", a)
			cfg.Journal = jrn
			for i := range devs {
				devs[i] = zns.NewDevice(clk, devCfg)
			}
			vol, err := raizn.Create(clk, devs, cfg)
			if err != nil {
				t.Fatalf("Create array %d: %v", a, err)
			}
			if _, err := m.AddArray(cfg.MetricsLabel, vol); err != nil {
				t.Fatalf("AddArray: %v", err)
			}
			arrs[a] = arrayState{devs: devs, jrn: jrn, cfg: cfg}
		}

		var tcs []volmgr.TenantConfig
		for i := 0; i < tenants; i++ {
			tcs = append(tcs, volmgr.TenantConfig{ID: fmt.Sprintf("t%d", i)})
		}
		v, err := m.CreateVolume("vol", volmgr.VolumeSpec{
			Zones:   tenants,
			Engine:  volmgr.EngineConfig{QueueDepth: 16, MaxInflight: 16},
			Tenants: tcs,
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		extents = v.ExtentMap()
		zs := v.ZoneSectors()
		ss := v.SectorSize()

		// The burst: every tenant writes its own zone with FUA, tracking
		// watermarks as futures resolve in FIFO order.
		wg := clk.NewWaitGroup()
		wg.Add(tenants)
		for i := 0; i < tenants; i++ {
			i := i
			clk.Go(func() {
				defer wg.Done()
				id := fmt.Sprintf("t%d", i)
				base := int64(i) * zs
				type pend struct {
					fut *vclock.Future
					end int64 // zone-relative end sector
				}
				var futs []pend
				settle := func(p pend) bool {
					if err := p.fut.Wait(); err != nil {
						t.Errorf("%s write: %v", id, err)
						return false
					}
					wmMu.Lock()
					if durable[i] < p.end {
						durable[i] = p.end
					}
					wmMu.Unlock()
					return true
				}
				for off := int64(0); off+chunk <= zs; off += chunk {
					lba := base + off
					data := make([]byte, chunk*ss)
					for j := range data {
						data[j] = byte(i) ^ byte(lba) ^ byte(j)
					}
					wmMu.Lock()
					if submitted[i] < off+chunk {
						submitted[i] = off + chunk
					}
					wmMu.Unlock()
					fut, err := v.SubmitWrite(id, lba, data, zns.FUA)
					if errors.Is(err, volmgr.ErrThrottled) {
						clk.Sleep(50 * time.Microsecond)
						off -= chunk
						continue
					}
					if errors.Is(err, volmgr.ErrClosed) {
						return // crash point passed; burst is over
					}
					if err != nil {
						t.Errorf("%s SubmitWrite: %v", id, err)
						return
					}
					futs = append(futs, pend{fut, off + chunk})
					if len(futs) >= 8 {
						if !settle(futs[0]) {
							return
						}
						futs = futs[1:]
					}
				}
				for _, p := range futs {
					if !settle(p) {
						return
					}
				}
			})
		}

		// Crash in the middle of the burst: once virtual time reaches the
		// cut point, snapshot every device of every array while tenant IO
		// is in flight.
		wg.Add(1)
		clk.AfterFunc(400*time.Microsecond, func() {
			defer wg.Done()
			wmMu.Lock()
			dur := make(map[int]int64, len(durable))
			sub := make(map[int]int64, len(submitted))
			for k, v := range durable {
				dur[k] = v
			}
			for k, v := range submitted {
				sub[k] = v
			}
			wmMu.Unlock()
			for a := 0; a < arrays; a++ {
				clones, cclk := SnapshotArray(arrs[a].devs, int64(1000+a))
				crashes[a] = crash{
					clones:    clones,
					clk:       cclk,
					events:    arrs[a].jrn.Events(),
					drop:      arrs[a].jrn.Dropped(),
					durable:   dur,
					submitted: sub,
				}
			}
		})

		wg.Wait()
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})

	// The cut must land mid-burst: some data already durable, but the
	// burst far from finished — otherwise the oracle run is vacuous.
	var totDur, totSub int64
	for i := 0; i < tenants; i++ {
		totDur += crashes[0].durable[i]
		totSub += crashes[0].submitted[i]
	}
	if totSub == 0 {
		t.Fatalf("crash fired before the burst started")
	}
	if totDur >= tenants*128*2 { // all zones durable = burst already over
		t.Fatalf("crash fired after the burst finished (durable=%d)", totDur)
	}

	for a := 0; a < arrays; a++ {
		if crashes[a].clones == nil {
			t.Fatalf("array %d was never snapshotted", a)
		}
		// Project the volume-zone watermarks onto this array's logical
		// zones through the extent map. Durable marks lag reality (safe);
		// submitted marks lead it (safe).
		marks := make(map[int]ZoneWatermarks)
		for _, e := range extents {
			if e.Array != fmt.Sprintf("a%d", a) {
				continue
			}
			marks[e.Zone] = ZoneWatermarks{
				Durable:   crashes[a].durable[e.Index],
				Submitted: crashes[a].submitted[e.Index],
			}
		}
		cfg := arrs[a].cfg
		cfg.Metrics = nil
		cfg.MetricsLabel = ""
		cfg.Journal = nil
		vios, vol := CheckArrayCrash(ArrayCrash{
			Clk:     crashes[a].clk,
			Clones:  crashes[a].clones,
			Events:  crashes[a].events,
			Dropped: crashes[a].drop,
			Config:  cfg,
		}, marks)
		for _, vio := range vios {
			t.Errorf("array %d: %s", a, vio)
		}
		if vol == nil && len(vios) == 0 {
			t.Errorf("array %d: no volume and no violations", a)
		}
	}
}
