package volmgr

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"raizn/internal/obs"
	"raizn/internal/obs/flight"
	"raizn/internal/raizn"
	"raizn/internal/stats"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// testDevConfig mirrors the raizn package's small-device geometry: with
// 3 devices and the default stripe unit, each array exposes 5 logical
// zones of 256 sectors.
func testDevConfig() zns.Config {
	cfg := zns.DefaultConfig()
	cfg.NumZones = 8
	cfg.ZoneSize = 160
	cfg.ZoneCap = 128
	cfg.MaxOpenZones = 8
	cfg.MaxActiveZones = 10
	return cfg
}

func newTestArray(t *testing.T, clk *vclock.Clock, reg *obs.Registry, label string) *raizn.Volume {
	return newTestArrayCfg(t, clk, reg, label, testDevConfig())
}

func newTestArrayCfg(t *testing.T, clk *vclock.Clock, reg *obs.Registry, label string, dc zns.Config) *raizn.Volume {
	t.Helper()
	devs := make([]*zns.Device, 3)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, dc)
	}
	cfg := raizn.DefaultConfig()
	cfg.Metrics = reg
	cfg.MetricsLabel = label
	v, err := raizn.Create(clk, devs, cfg)
	if err != nil {
		t.Fatalf("raizn.Create(%s): %v", label, err)
	}
	return v
}

// newTestManager hosts n arrays a0..a(n-1) under one registry.
func newTestManager(t *testing.T, clk *vclock.Clock, n int) *Manager {
	t.Helper()
	m := NewManager(clk, Config{})
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("a%d", i)
		if _, err := m.AddArray(id, newTestArray(t, clk, m.Metrics(), id)); err != nil {
			t.Fatalf("AddArray(%s): %v", id, err)
		}
	}
	return m
}

func pattern(tenant string, lba int64, n int, ss int) []byte {
	out := make([]byte, n*ss)
	seed := byte(len(tenant))
	for _, c := range []byte(tenant) {
		seed ^= c
	}
	for i := 0; i < n; i++ {
		cur := lba + int64(i)
		for j := 0; j < ss; j++ {
			out[i*ss+j] = seed ^ byte(cur) ^ byte(j) ^ byte(cur>>8)
		}
	}
	return out
}

// TestExtentMapRoundRobin checks that volume zones stripe across arrays
// in registration order and that placement is reproducible.
func TestExtentMapRoundRobin(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 3)
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones:   6,
			Tenants: []TenantConfig{{ID: "t0"}},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		want := []ExtentDesc{
			{Index: 0, Array: "a0", Zone: 0},
			{Index: 1, Array: "a1", Zone: 0},
			{Index: 2, Array: "a2", Zone: 0},
			{Index: 3, Array: "a0", Zone: 1},
			{Index: 4, Array: "a1", Zone: 1},
			{Index: 5, Array: "a2", Zone: 1},
		}
		got := v.ExtentMap()
		if len(got) != len(want) {
			t.Fatalf("extent map has %d entries, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("extent %d = %+v, want %+v", i, got[i], want[i])
			}
		}
		// A second volume continues where the cursor left off.
		v2, err := m.CreateVolume("vol2", VolumeSpec{Zones: 2, Tenants: []TenantConfig{{ID: "t0"}}})
		if err != nil {
			t.Fatalf("CreateVolume(vol2): %v", err)
		}
		em := v2.ExtentMap()
		if em[0].Array != "a0" || em[0].Zone != 2 || em[1].Array != "a1" || em[1].Zone != 2 {
			t.Errorf("second volume extents = %+v, want a0/2, a1/2", em)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestWriteReadAcrossExtents writes every zone of a volume spanning two
// arrays and reads the data back through the engine.
func TestWriteReadAcrossExtents(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 2)
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones:   4,
			Tenants: []TenantConfig{{ID: "t0"}},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		zs := v.ZoneSectors()
		ss := v.SectorSize()
		const chunk = 16
		for z := 0; z < v.NumZones(); z++ {
			for off := int64(0); off < zs; off += chunk {
				lba := int64(z)*zs + off
				if err := v.Write("t0", lba, pattern("t0", lba, chunk, ss), 0); err != nil {
					t.Fatalf("Write z%d off%d: %v", z, off, err)
				}
			}
		}
		for z := 0; z < v.NumZones(); z++ {
			lba := int64(z) * zs
			buf := make([]byte, int(zs)*ss)
			if err := v.Read("t0", lba, buf); err != nil {
				t.Fatalf("Read z%d: %v", z, err)
			}
			want := pattern("t0", lba, int(zs), ss)
			for i := range want {
				if buf[i] != want[i] {
					t.Fatalf("zone %d data mismatch at byte %d", z, i)
				}
			}
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestValidationErrors exercises the synchronous error paths.
func TestValidationErrors(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 1)
		if _, err := m.CreateVolume("vol", VolumeSpec{Zones: 100}); !errors.Is(err, ErrNoSpace) {
			t.Errorf("oversized volume: err = %v, want ErrNoSpace", err)
		}
		v, err := m.CreateVolume("vol", VolumeSpec{Zones: 2, Tenants: []TenantConfig{{ID: "t0"}}})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		if _, err := m.CreateVolume("vol", VolumeSpec{Zones: 1}); !errors.Is(err, ErrExists) {
			t.Errorf("duplicate volume: err = %v, want ErrExists", err)
		}
		dup := []TenantConfig{{ID: "t0"}, {ID: "t0"}}
		if _, err := m.CreateVolume("dup", VolumeSpec{Zones: 1, Tenants: dup}); err == nil {
			t.Errorf("duplicate tenant registration succeeded")
		}
		ss := v.SectorSize()
		zs := v.ZoneSectors()
		if _, err := v.SubmitWrite("t0", 0, make([]byte, ss-1), 0); !errors.Is(err, ErrUnaligned) {
			t.Errorf("unaligned write: err = %v, want ErrUnaligned", err)
		}
		if _, err := v.SubmitWrite("t0", v.NumSectors(), make([]byte, ss), 0); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("out-of-range write: err = %v, want ErrOutOfRange", err)
		}
		if _, err := v.SubmitWrite("t0", zs-1, make([]byte, 2*ss), 0); !errors.Is(err, ErrExtentBoundary) {
			t.Errorf("boundary-crossing write: err = %v, want ErrExtentBoundary", err)
		}
		if _, err := v.SubmitWrite("nobody", 0, make([]byte, ss), 0); !errors.Is(err, ErrUnknownTenant) {
			t.Errorf("unknown tenant: err = %v, want ErrUnknownTenant", err)
		}
		if err := v.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		if _, err := v.SubmitWrite("t0", 0, make([]byte, ss), 0); !errors.Is(err, ErrClosed) {
			t.Errorf("write after close: err = %v, want ErrClosed", err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("manager Close: %v", err)
		}
	})
}

// TestAdmissionControlSheds fills a depth-bounded queue faster than the
// engine drains it and checks the overflow is shed with the typed
// error.
func TestAdmissionControlSheds(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 1)
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones:  1,
			Engine: EngineConfig{QueueDepth: 4, MaxInflight: 1},
			Tenants: []TenantConfig{
				// A tight rate limit keeps the queue from draining under us.
				{ID: "t0", RateSectorsPerSec: 16, BurstSectors: 1},
			},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		ss := v.SectorSize()
		var futs []*vclock.Future
		var shed int
		var terr *ThrottledError
		// A zoned stream must write at the write pointer, so a shed write
		// is retried at the same LBA: the next LBA only follows an accept.
		// (Skipping ahead instead would make every later accepted write
		// fail at the write pointer — whether it does depended on how the
		// host scheduled the dispatcher against this loop.)
		lba := int64(0)
		for i := 0; i < 32; i++ {
			fut, err := v.SubmitWrite("t0", lba, pattern("t0", lba, 1, ss), 0)
			switch {
			case err == nil:
				futs = append(futs, fut)
				lba++
			case errors.Is(err, ErrThrottled):
				shed++
				if !errors.As(err, &terr) {
					t.Fatalf("throttled error is not a *ThrottledError: %v", err)
				}
			default:
				t.Fatalf("SubmitWrite: %v", err)
			}
		}
		if shed == 0 {
			t.Fatalf("no request was shed despite queue depth 4 and 32 submissions")
		}
		if terr.Tenant != "t0" || terr.Volume != "vol" {
			t.Errorf("ThrottledError = %+v, want tenant t0 volume vol", terr)
		}
		if err := vclock.WaitAll(futs...); err != nil {
			t.Fatalf("accepted writes failed: %v", err)
		}
		st := v.TenantStats()[0]
		if st.Shed != int64(shed) || st.Accepted != int64(len(futs)) {
			t.Errorf("stats accepted=%d shed=%d, want %d/%d", st.Accepted, st.Shed, len(futs), shed)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestRateLimitStretchesTime checks the token bucket paces a tenant to
// its configured rate in virtual time.
func TestRateLimitStretchesTime(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 1)
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones: 1,
			Tenants: []TenantConfig{
				{ID: "t0", RateSectorsPerSec: 64, BurstSectors: 1},
			},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		ss := v.SectorSize()
		const total = 128 // sectors; at 64/s this takes ~2s of virtual time
		start := clk.Now()
		for lba := int64(0); lba < total; lba += 4 {
			if err := v.Write("t0", lba, pattern("t0", lba, 4, ss), 0); err != nil {
				t.Fatalf("Write: %v", err)
			}
		}
		elapsed := clk.Now() - start
		if min := 1500 * time.Millisecond; elapsed < min {
			t.Errorf("128 sectors at 64/s finished in %v, want >= %v", elapsed, min)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestWeightedFairness backlogs two tenants with a 2:1 weight split on
// one array and checks completed bytes track the weights within 10%.
// The measurement window is the heavy tenant's steady-state middle —
// snapshots at 25% and 100% of its submissions — so start-up transients
// (one tenant's queue filling first) and tail drain don't skew it.
func TestWeightedFairness(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		// Bigger zones than the default test geometry: the steady-state
		// window needs a few hundred chunks to average over.
		dc := testDevConfig()
		dc.ZoneSize = 640
		dc.ZoneCap = 512
		m := NewManager(clk, Config{})
		if _, err := m.AddArray("a0", newTestArrayCfg(t, clk, m.Metrics(), "a0", dc)); err != nil {
			t.Fatalf("AddArray: %v", err)
		}
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones:  4,
			Engine: EngineConfig{QueueDepth: 32, MaxInflight: 4, QuantumSectors: 16},
			Tenants: []TenantConfig{
				{ID: "heavy", Weight: 2},
				{ID: "light", Weight: 1},
			},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		ss := v.SectorSize()
		zs := v.ZoneSectors()
		const chunk = 16
		chunksPerTenant := int(2 * zs / chunk) // two zones each
		wg := clk.NewWaitGroup()
		var snapStart, snapEnd []TenantStats
		runTenant := func(id string, firstZone int64) {
			defer wg.Done()
			var futs []*vclock.Future
			for i := 0; i < chunksPerTenant; i++ {
				lba := (firstZone+int64(i)/(zs/chunk))*zs + int64(i)%(zs/chunk)*chunk
				fut, err := v.SubmitWrite(id, lba, pattern(id, lba, chunk, ss), 0)
				if errors.Is(err, ErrThrottled) {
					clk.Sleep(time.Millisecond)
					i--
					continue
				}
				if err != nil {
					t.Errorf("%s SubmitWrite: %v", id, err)
					return
				}
				futs = append(futs, fut)
				if len(futs) >= 16 {
					if err := futs[0].Wait(); err != nil {
						t.Errorf("%s write failed: %v", id, err)
						return
					}
					futs = futs[1:]
				}
				if id == "heavy" {
					switch i {
					case chunksPerTenant / 4:
						snapStart = v.TenantStats()
					case chunksPerTenant - 1:
						snapEnd = v.TenantStats()
					}
				}
			}
			if err := vclock.WaitAll(futs...); err != nil {
				t.Errorf("%s drain: %v", id, err)
			}
		}
		wg.Add(2)
		clk.Go(func() { runTenant("heavy", 0) })
		clk.Go(func() { runTenant("light", 2) })
		wg.Wait()

		delta := func(stats []TenantStats, id string) int64 {
			for _, st := range stats {
				if st.ID == id {
					return st.CompletedBytes
				}
			}
			return 0
		}
		heavy := delta(snapEnd, "heavy") - delta(snapStart, "heavy")
		light := delta(snapEnd, "light") - delta(snapStart, "light")
		if light == 0 {
			t.Fatalf("light tenant completed nothing in the window (heavy=%d)", heavy)
		}
		ratio := float64(heavy) / float64(light)
		if ratio < 1.8 || ratio > 2.2 {
			t.Errorf("2:1 weights produced byte ratio %.3f (heavy=%d light=%d), want within 10%% of 2",
				ratio, heavy, light)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestCoalesceRule tests the engine's issue rule where it is a function of
// its input: engine.issueOne on hand-built requests. The engine merges
// nothing: contiguous same-tenant writes with equal flags, a flag change,
// a read, a gap and another tenant's writes each reach the array as one
// command, in issue order, and read back intact.
func TestCoalesceRule(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 1)
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones:   2,
			Tenants: []TenantConfig{{ID: "t0"}, {ID: "t1"}},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		ss := v.SectorSize()
		e := v.eng
		type cmd struct{ start, end int64 }
		var (
			mu   sync.Mutex
			cmds []cmd
		)
		v.extents[0].arr.vol.AttachHook(func(p obs.HookPoint) {
			mu.Lock()
			defer mu.Unlock()
			switch p.Name {
			case "raizn.write.plan":
				cmds = append(cmds, cmd{start: p.Arg})
			case "raizn.write.submit":
				cmds[len(cmds)-1].end = p.Arg
			}
		})
		req := func(tid string, kind opKind, lba, n int64, flags zns.Flag) *request {
			data := pattern("t0", lba, int(n), ss)
			if kind == opRead {
				data = make([]byte, int(n)*ss)
			}
			r := &request{tn: e.tenants[tid], kind: kind, lba: lba, data: data,
				flags: flags, sectors: n, submitT: clk.Now()}
			clk.InitFuture(&r.done)
			return r
		}
		issue := func(reqs []*request) {
			e.mu.Lock()
			e.inflight += len(reqs) // as dispatcherLoop does before issueOne
			e.mu.Unlock()
			for _, r := range reqs {
				e.issueOne(r)
			}
			for i, r := range reqs {
				if err := r.done.Wait(); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
			}
		}
		reqs := []*request{
			req("t0", opWrite, 0, 4, 0),
			req("t0", opWrite, 4, 4, 0),
			req("t0", opWrite, 8, 4, 0),        // contiguous, equal flags
			req("t0", opWrite, 12, 4, zns.FUA), // flags differ
			req("t0", opRead, 0, 4, 0),
			req("t0", opWrite, 16, 4, 0),
			req("t0", opWrite, 20, 4, 0),
			req("t1", opWrite, 24, 4, 0), // another tenant
			req("t1", opWrite, 28, 2, 0),
		}
		issue(reqs)
		want := []cmd{{0, 4}, {4, 8}, {8, 12}, {12, 16}, {16, 20}, {20, 24}, {24, 28}, {28, 30}}
		mu.Lock()
		got := fmt.Sprint(cmds)
		mu.Unlock()
		if got != fmt.Sprint(want) {
			t.Errorf("array write commands = %v, want %v: one per write request", got, want)
		}
		if !bytes.Equal(reqs[4].data, pattern("t0", 0, 4, ss)) {
			t.Error("the read between the writes returned the wrong data")
		}
		buf := make([]byte, 30*ss)
		if err := v.Read("t0", 0, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(buf, pattern("t0", 0, 30, ss)) {
			t.Error("data mismatch after the writes")
		}

		// A same-tenant pair with a gap between them (the second at the
		// start of the volume's next zone) is two commands as well.
		mu.Lock()
		cmds = nil
		mu.Unlock()
		issue([]*request{req("t0", opWrite, 30, 4, 0), req("t0", opWrite, e.v.zoneSectors, 4, 0)})
		mu.Lock()
		n := len(cmds)
		mu.Unlock()
		if n != 2 {
			t.Errorf("non-contiguous pair: %d array commands, want 2", n)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestCoalescing: a burst of 32 contiguous same-tenant writes submitted
// back to back reaches the array as 32 write commands (the engine merges
// nothing; the array's stripe buffers gather sequential writes) and reads
// back intact.
func TestCoalescing(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 1)
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones:   1,
			Engine:  EngineConfig{MaxInflight: 8},
			Tenants: []TenantConfig{{ID: "t0"}},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		var order planOrder
		order.attach(v.extents[0].arr.vol)
		ss := v.SectorSize()
		var futs []*vclock.Future
		const n = 32
		for i := int64(0); i < n; i++ {
			fut, err := v.SubmitWrite("t0", i*4, pattern("t0", i*4, 4, ss), 0)
			if err != nil {
				t.Fatalf("SubmitWrite %d: %v", i, err)
			}
			futs = append(futs, fut)
		}
		if err := vclock.WaitAll(futs...); err != nil {
			t.Fatalf("writes failed: %v", err)
		}
		order.mu.Lock()
		got := len(order.seen)
		order.mu.Unlock()
		if got != n {
			t.Errorf("%d array write commands for %d requests, want one per request", got, n)
		}
		buf := make([]byte, n*4*ss)
		if err := v.Read("t0", 0, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(buf, pattern("t0", 0, n*4, ss)) {
			t.Fatal("data mismatch after the burst")
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestBackloggedBurstIssuesOneCommandPerRequest: a burst of contiguous
// same-tenant writes that reaches the dispatcher as a backlog (queued
// behind another tenant's token-blocked request) goes to the array as one
// write command per request, in submission order, and reads back intact.
// Merging sequential writes is the array's job (its stripe buffers and
// per-device sub-IOs), not the engine's.
func TestBackloggedBurstIssuesOneCommandPerRequest(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m, _ := newOneArrayManager(t, clk)
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones: 2,
			Tenants: []TenantConfig{
				{ID: "t0", RateSectorsPerSec: 4000, BurstSectors: 4},
				{ID: "t1"},
			},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		var order planOrder
		order.attach(v.extents[0].arr.vol)
		ss := v.SectorSize()
		zs := v.ZoneSectors()
		submit := func(tid string, lba int64) *vclock.Future {
			fut, err := v.SubmitWrite(tid, lba, pattern(tid, lba, 4, ss), 0)
			if err != nil {
				t.Fatalf("SubmitWrite(%s, %d): %v", tid, lba, err)
			}
			return fut
		}
		futs := []*vclock.Future{submit("t0", 0), submit("t0", 4)} // the second waits for a token
		clk.Sleep(0)                                               // the dispatcher parks until the refill
		const n = 8
		for i := int64(0); i < n; i++ {
			futs = append(futs, submit("t1", zs+4*i))
		}
		if q := v.TenantStats()[1]; q.Accepted != n || v.eng.inlined.Load() != 1 {
			t.Fatalf("t1 accepted %d, %d inline, want %d queued behind t0's backlog", q.Accepted, v.eng.inlined.Load(), n)
		}
		if err := vclock.WaitAll(futs...); err != nil {
			t.Fatalf("writes failed: %v", err)
		}
		want := "[z0+0"
		for i := int64(0); i < n; i++ {
			want += fmt.Sprintf(" z1+%d", 4*i)
		}
		want += " z0+4]"
		if order.String() != want {
			t.Errorf("array write commands %v, want %s: one per request", order.String(), want)
		}
		e := v.eng
		if d, b := e.dispatched.Load(), e.batches.Load(); d != n+2 || b != d {
			t.Errorf("dispatched=%d batches=%d, want %d each", d, b, n+2)
		}
		buf := make([]byte, n*4*ss)
		if err := v.Read("t1", zs, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(buf, pattern("t1", zs, n*4, ss)) {
			t.Error("data mismatch after the burst")
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestRejectedCreateVolumeClaimsNothing: a tenant list with an empty or a
// repeated ID fails CreateVolume before any extent is placed, so the
// array keeps every zone and a whole-array volume still fits, and the
// rejected volume registers no metric series.
func TestRejectedCreateVolumeClaimsNothing(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 1)
		arr := m.Arrays()[0]
		free := arr.FreeZones()
		for _, tcs := range [][]TenantConfig{
			{{ID: "t0"}, {ID: "t0"}},
			{{ID: "t0"}, {}},
		} {
			if _, err := m.CreateVolume("bad", VolumeSpec{Zones: 2, Tenants: tcs}); err == nil {
				t.Fatalf("CreateVolume with tenants %v succeeded", tcs)
			}
			if got := arr.FreeZones(); got != free {
				t.Errorf("rejected CreateVolume left %d free zones, want %d", got, free)
			}
		}
		snap := m.Metrics().Snapshot()
		for _, series := range []map[string]int64{snap.Counters, snap.Gauges} {
			for name := range series {
				if strings.Contains(name, `volume="bad"`) {
					t.Errorf("rejected volume registered %s", name)
				}
			}
		}
		if _, err := m.CreateVolume("whole", VolumeSpec{Zones: free, Tenants: []TenantConfig{{ID: "t0"}}}); err != nil {
			t.Fatalf("whole-array volume after the rejections: %v", err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestManyTenantsConcurrent drives many tenant goroutines with
// pipelined async submissions through one volume spanning several
// arrays — the test the race detector cares about.
func TestManyTenantsConcurrent(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 4)
		const tenants = 16
		var tcs []TenantConfig
		for i := 0; i < tenants; i++ {
			tcs = append(tcs, TenantConfig{ID: fmt.Sprintf("t%02d", i)})
		}
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones:   tenants,
			Engine:  EngineConfig{QueueDepth: 16, MaxInflight: 32},
			Tenants: tcs,
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		ss := v.SectorSize()
		zs := v.ZoneSectors()
		const chunk = 8
		wg := clk.NewWaitGroup()
		wg.Add(tenants)
		for i := 0; i < tenants; i++ {
			i := i
			clk.Go(func() {
				defer wg.Done()
				id := fmt.Sprintf("t%02d", i)
				base := int64(i) * zs
				var futs []*vclock.Future
				for off := int64(0); off+chunk <= zs; off += chunk {
					lba := base + off
					fut, err := v.SubmitWrite(id, lba, pattern(id, lba, chunk, ss), 0)
					if errors.Is(err, ErrThrottled) {
						clk.Sleep(100 * time.Microsecond)
						off -= chunk
						continue
					}
					if err != nil {
						t.Errorf("%s SubmitWrite: %v", id, err)
						return
					}
					futs = append(futs, fut)
					if len(futs) >= 8 {
						if err := futs[0].Wait(); err != nil {
							t.Errorf("%s write: %v", id, err)
							return
						}
						futs = futs[1:]
					}
				}
				if err := vclock.WaitAll(futs...); err != nil {
					t.Errorf("%s drain: %v", id, err)
					return
				}
				// Read the whole zone back and verify.
				buf := make([]byte, int(zs)*ss)
				if err := v.Read(id, base, buf); err != nil {
					t.Errorf("%s Read: %v", id, err)
					return
				}
				want := pattern(id, base, int(zs), ss)
				for j := range want {
					if buf[j] != want[j] {
						t.Errorf("%s data mismatch at byte %d", id, j)
						return
					}
				}
			})
		}
		wg.Wait()
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		// Every tenant's accounting adds up.
		for _, st := range v.TenantStats() {
			wantBytes := zs * int64(ss) // zone write + zone read... writes only counted
			if st.Errored != 0 {
				t.Errorf("%s: %d errored requests", st.ID, st.Errored)
			}
			if st.CompletedBytes < wantBytes {
				t.Errorf("%s: completed %d bytes, want >= %d", st.ID, st.CompletedBytes, wantBytes)
			}
		}
	})
}

// TestJainIndex sanity-checks the fairness helper.
func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); got < 0.999 {
		t.Errorf("equal split: %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); got > 0.2500001 || got < 0.2499999 {
		t.Errorf("single winner of 4: %v, want 0.25", got)
	}
	if got := JainIndex(nil); got != 0 {
		t.Errorf("empty: %v, want 0", got)
	}
}

// TestTenantArrayAttribution: completions are attributed to the hosting
// array per tenant, and the ranking orders errors, then mean latency,
// then volume, deterministically.
func TestTenantArrayAttribution(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 2)
		v, err := m.CreateVolume("attr", VolumeSpec{
			Zones:   4, // round-robins across a0, a1
			Engine:  EngineConfig{QueueDepth: 4},
			Tenants: []TenantConfig{{ID: "t0", Weight: 1}},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		zs := v.ZoneSectors()
		// Zone 0 lives on a0, zone 1 on a1: write both so t0 has
		// completions attributed to both arrays.
		for z := int64(0); z < 2; z++ {
			fut, err := v.SubmitWrite("t0", z*zs, pattern("t0", z*zs, 16, v.SectorSize()), 0)
			if err != nil {
				t.Fatalf("SubmitWrite zone %d: %v", z, err)
			}
			if err := fut.Wait(); err != nil {
				t.Fatalf("write zone %d: %v", z, err)
			}
		}
		attr := v.TenantArrayAttribution("t0")
		if len(attr) != 2 {
			t.Fatalf("attribution has %d arrays, want 2: %+v", len(attr), attr)
		}
		var ops int64
		for _, a := range attr {
			if a.Array != "a0" && a.Array != "a1" {
				t.Errorf("attributed to unknown array %q", a.Array)
			}
			if a.Errors != 0 {
				t.Errorf("%s: %d errors on a clean run", a.Array, a.Errors)
			}
			if a.MeanLat <= 0 {
				t.Errorf("%s: non-positive mean latency %v", a.Array, a.MeanLat)
			}
			ops += a.Ops
		}
		if ops != 2 {
			t.Errorf("attributed %d ops, want 2", ops)
		}
		if v.TenantArrayAttribution("nope") != nil {
			t.Error("unknown tenant should attribute to nothing")
		}
		if err := v.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestCheckIncidentsFreezesAttributedArray: an SLO breach files one
// incident against the breaching tenant's most-implicated array, carries
// the tenant/array attribution in the trigger, and freezes that array's
// recorder exactly once.
func TestCheckIncidentsFreezesAttributedArray(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 1)
		v, err := m.CreateVolume("slo", VolumeSpec{
			Zones: 2,
			Engine: EngineConfig{
				QueueDepth: 4,
				// An absurdly tight absolute objective: every write breaches.
				SLO: obs.SLOConfig{Factor: 1, TargetP99: time.Nanosecond, MinSamples: 4},
			},
			Tenants: []TenantConfig{{ID: "t0", Weight: 1}},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		rec := flight.New(flight.Config{Clock: clk, Registry: m.Metrics(), Label: "a0"})
		m.AttachRecorder("a0", rec)

		zs := v.ZoneSectors()
		for i := int64(0); i < 8; i++ {
			fut, err := v.SubmitWrite("t0", i*16%zs+i/(zs/16)*zs, pattern("t0", 0, 16, v.SectorSize()), 0)
			if err != nil {
				t.Fatalf("SubmitWrite: %v", err)
			}
			if err := fut.Wait(); err != nil {
				t.Fatalf("write: %v", err)
			}
		}

		incidents := m.CheckIncidents()
		if len(incidents) != 1 {
			t.Fatalf("CheckIncidents filed %d incidents, want 1: %+v", len(incidents), incidents)
		}
		trig := incidents[0].Trigger()
		if trig == nil || trig.Kind != flight.TrigSLOBreach {
			t.Fatalf("trigger = %+v, want an SLO-breach trigger", trig)
		}
		if trig.Tenant != "t0" || trig.Array != "a0" {
			t.Errorf("trigger attribution = tenant %q array %q, want t0/a0", trig.Tenant, trig.Array)
		}
		if !rec.Frozen() {
			t.Error("the attributed array's recorder was not frozen")
		}
		// A second sweep must not refile against the frozen recorder.
		if again := m.CheckIncidents(); len(again) != 0 {
			t.Errorf("second sweep filed %d incidents against a frozen recorder", len(again))
		}
		if err := v.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestSLOAlarmReadsTenantLatencies: the SLO alarm judges the latencies
// the tenants' own histograms recorded. Four tenants each own a zone on
// their own array, and the slow tenant's array runs on devices 20x
// slower. Each tenant measures its requests from submit to completion,
// and the alarm's Bar and Check must equal what the same rule gives over
// reference histograms of those measurements.
func TestSLOAlarmReadsTenantLatencies(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := NewManager(clk, Config{})
		for i := 0; i < 4; i++ {
			devs := make([]*zns.Device, 3)
			for d := range devs {
				devs[d] = zns.NewDevice(clk, testDevConfig())
				if i == 3 {
					devs[d].SetSlowdown(20)
				}
			}
			id := fmt.Sprintf("a%d", i)
			rcfg := raizn.DefaultConfig()
			rcfg.Metrics = m.Metrics()
			rcfg.MetricsLabel = id
			arr, err := raizn.Create(clk, devs, rcfg)
			if err != nil {
				t.Fatalf("raizn.Create: %v", err)
			}
			if _, err := m.AddArray(id, arr); err != nil {
				t.Fatalf("AddArray: %v", err)
			}
		}
		cfg := obs.SLOConfig{Factor: 2, MinSamples: 4}
		v, err := m.CreateVolume("slo", VolumeSpec{
			Zones:   4, // zone i on array ai
			Engine:  EngineConfig{SLO: cfg},
			Tenants: []TenantConfig{{ID: "f0"}, {ID: "f1"}, {ID: "f2"}, {ID: "slow"}},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		ss := v.SectorSize()
		zs := v.ZoneSectors()
		const chunk = 16
		fleet := stats.NewHistogram()
		ref := map[string]*stats.Histogram{}
		wg := clk.NewWaitGroup()
		run := func(id string, h *stats.Histogram, zone int64, ops int) {
			defer wg.Done()
			base := zone * zs
			buf := make([]byte, chunk*ss)
			for i := 0; i < ops; i++ {
				lba := base + int64(i)%(zs/chunk)*chunk
				t0 := clk.Now()
				var fut *vclock.Future
				var err error
				if int64(i) < zs/chunk {
					fut, err = v.SubmitWrite(id, lba, pattern(id, lba, chunk, ss), 0)
				} else {
					fut, err = v.SubmitRead(id, lba, buf)
				}
				if err == nil {
					err = fut.Wait()
				}
				if err != nil {
					t.Errorf("%s op %d: %v", id, i, err)
					return
				}
				h.Record(clk.Now() - t0)
				fleet.Record(clk.Now() - t0)
			}
		}
		ids := []string{"f0", "f1", "f2", "slow"}
		for _, id := range ids {
			ref[id] = stats.NewHistogram()
		}
		for z, id := range ids {
			ops := 200
			if id == "slow" {
				ops = 5 // under 1% of the fleet: the fleet p99 stays a fast tenant's
			}
			wg.Add(1)
			h := ref[id]
			clk.Go(func() { run(id, h, int64(z), ops) })
		}
		wg.Wait()

		wantBar := time.Duration(cfg.Factor * float64(fleet.Percentile(99)))
		if bar, ok := v.Alarm().Bar(); !ok || bar != wantBar {
			t.Fatalf("Bar = %v/%v, want %v (2 x the p99 of every measured latency)", bar, ok, wantBar)
		}
		var want []obs.SLOBreach
		for _, id := range ids {
			if p99 := ref[id].Percentile(99); p99 > wantBar {
				want = append(want, obs.SLOBreach{Tenant: id, P99: p99, Bar: wantBar, Samples: ref[id].Count()})
			}
		}
		got := v.Alarm().Check()
		if len(want) != 1 || want[0].Tenant != "slow" {
			t.Fatalf("reference breaches = %+v, want exactly the slowed tenant", want)
		}
		if len(got) != len(want) || got[0] != want[0] {
			t.Fatalf("Check = %+v, want %+v", got, want)
		}
		for _, st := range v.TenantStats() {
			if n := st.Latency.Count(); n != ref[st.ID].Count() {
				t.Errorf("tenant %s histogram holds %d latencies, %d requests completed", st.ID, n, ref[st.ID].Count())
			}
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

// TestThrottledTenantDoesNotStallOthers keeps one tenant backlogged
// behind a 50-sector/s bucket (burst 1, one-sector writes) while three
// unlimited tenants write and read their own zones, one request a
// millisecond. The throttled
// tenant's next refill is up to 20 ms away; the others' requests must
// not wait for it. They write whole stripes, which log no partial
// parity, so no metadata roll-over lands in their service times.
func TestThrottledTenantDoesNotStallOthers(t *testing.T) {
	clk := vclock.New()
	clk.Run(func() {
		m := newTestManager(t, clk, 1)
		v, err := m.CreateVolume("vol", VolumeSpec{
			Zones: 4,
			Tenants: []TenantConfig{
				{ID: "slow", RateSectorsPerSec: 50, BurstSectors: 1},
				{ID: "u0"}, {ID: "u1"}, {ID: "u2"},
			},
		})
		if err != nil {
			t.Fatalf("CreateVolume: %v", err)
		}
		ss := v.SectorSize()
		zs := v.ZoneSectors()
		const stripe = 32 // two data units of 16 sectors
		wg := clk.NewWaitGroup()
		wg.Add(4)
		clk.Go(func() { // slow: 16 one-sector writes, up to 8 queued at once
			defer wg.Done()
			var futs []*vclock.Future
			for lba := int64(0); lba < 16; lba++ {
				fut, err := v.SubmitWrite("slow", lba, pattern("slow", lba, 1, ss), 0)
				if err != nil {
					t.Errorf("slow SubmitWrite: %v", err)
					return
				}
				if futs = append(futs, fut); len(futs) == 8 {
					if err := futs[0].Wait(); err != nil {
						t.Errorf("slow write: %v", err)
					}
					futs = futs[1:]
				}
			}
			if err := vclock.WaitAll(futs...); err != nil {
				t.Errorf("slow write: %v", err)
			}
		})
		for i := 1; i <= 3; i++ {
			id := fmt.Sprintf("u%d", i-1)
			base := int64(i) * zs
			clk.Go(func() { // fill the zone a stripe at a time, then read it back
				defer wg.Done()
				buf := make([]byte, stripe*ss)
				for off := int64(0); off < 2*zs; off += stripe {
					clk.Sleep(time.Millisecond)
					lba := base + off%zs
					var err error
					if off < zs {
						err = v.Write(id, lba, pattern(id, lba, stripe, ss), 0)
					} else if err = v.Read(id, lba, buf); err == nil && !bytes.Equal(buf, pattern(id, lba, stripe, ss)) {
						err = fmt.Errorf("read-back mismatch at %d", lba)
					}
					if err != nil {
						t.Errorf("%s: %v", id, err)
						return
					}
				}
			})
		}
		wg.Wait()
		for _, st := range v.TenantStats() {
			if p99 := st.Latency.Percentile(99); st.ID != "slow" && p99 >= time.Millisecond {
				t.Errorf("tenant %s: p99 %v beside a throttled tenant, want < 1ms", st.ID, p99)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}
