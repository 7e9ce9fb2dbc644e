package main

import (
	"errors"
	"fmt"
	"os"
	"time"

	"raizn/internal/obs"
	"raizn/internal/obs/flight"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/volmgr"
	"raizn/internal/zns"
)

// The -serve view builds a small multi-tenant serving stack — RAIZN
// arrays hosted behind a volume manager — drives one deterministic
// burst, and dumps the serving-side state: the volume's extent map,
// the per-tenant QoS table, and the SLO alarm, which answers "which
// tenant's tail is out of line" from the tenants' latency histograms.
const (
	serveArrays  = 2
	serveDevs    = 5
	serveTenants = 8
	serveChunk   = 16 // sectors per write
	serveWindow  = 1  // per-client outstanding submissions; serial keeps
	// the burst service-time-bound so per-tenant tails reflect the
	// devices beneath each extent, not shared queueing

	// One device on the last array runs slow, so the tenants whose
	// extents land there develop a visibly worse tail.
	serveSlowDev  = 2
	serveSlowFact = 8.0

	// The serving SLO: an absolute 2ms p99 objective per tenant.
	serveSLOTarget = 2 * time.Millisecond

	// t6's token-bucket ceiling; its client overruns it on purpose so
	// admission control sheds visibly.
	serveRateLimit  = 8192 // sectors/s
	serveRateBurst  = 64   // sectors
	serveLimitedWin = 24
)

func runServeView(clk *vclock.Clock) {
	cfg := zns.DefaultConfig()
	cfg.NumZones = 12
	cfg.ZoneSize = 1280
	cfg.ZoneCap = 1024

	m := volmgr.NewManager(clk, volmgr.Config{})
	var slowed *zns.Device
	for a := 0; a < serveArrays; a++ {
		devs := make([]*zns.Device, serveDevs)
		for i := range devs {
			devs[i] = zns.NewDevice(clk, cfg)
		}
		rcfg := raizn.DefaultConfig()
		rcfg.StripeUnitSectors = serveChunk
		rcfg.Metrics = m.Metrics()
		rcfg.MetricsLabel = fmt.Sprintf("a%d", a)
		vol, err := raizn.Create(clk, devs, rcfg)
		if err != nil {
			serveFatal("create array:", err)
		}
		if _, err := m.AddArray(rcfg.MetricsLabel, vol); err != nil {
			serveFatal("host array:", err)
		}
		if a == serveArrays-1 {
			slowed = devs[serveSlowDev]
		}
	}

	tenants := make([]volmgr.TenantConfig, serveTenants)
	for i := range tenants {
		tc := volmgr.TenantConfig{ID: fmt.Sprintf("t%d", i), Weight: 1}
		switch i {
		case 0, 1:
			tc.Weight = 2
		case serveTenants - 2:
			tc.RateSectorsPerSec = serveRateLimit
			tc.BurstSectors = serveRateBurst
		}
		tenants[i] = tc
	}
	v, err := m.CreateVolume("tenants", volmgr.VolumeSpec{
		Zones: serveTenants,
		Engine: volmgr.EngineConfig{
			QueueDepth: 8,
			SLO:        obs.SLOConfig{Factor: 1, TargetP99: serveSLOTarget, MinSamples: 32},
		},
		Tenants: tenants,
	})
	if err != nil {
		serveFatal("create volume:", err)
	}

	// Each hosted array gets a flight recorder; an SLO breach freezes the
	// breaching tenant's most-implicated array's recorder (CheckIncidents
	// below), which is how a serving stack attributes a tenant's bad tail
	// to the array causing it.
	for _, a := range m.Arrays() {
		rec := flight.New(flight.Config{Clock: clk, Registry: m.Metrics(), Label: a.ID()})
		rec.Poll()
		m.AttachRecorder(a.ID(), rec)
	}

	slowed.SetSlowdown(serveSlowFact)

	// One client per tenant writes 3/4 of its own zone (tenant i owns
	// volume zone i) in pipelined chunks. A throttled submit sleeps and
	// retries the same offset, so per-zone sequential order holds and
	// the engine's shed counter records every rejection.
	quota := v.ZoneSectors() / serveChunk / 4 * serveChunk
	wg := clk.NewWaitGroup()
	for i := 0; i < serveTenants; i++ {
		i := i
		wg.Add(1)
		clk.Go(func() {
			defer wg.Done()
			id := fmt.Sprintf("t%d", i)
			window := serveWindow
			if i == serveTenants-2 {
				window = serveLimitedWin
			}
			buf := make([]byte, serveChunk*v.SectorSize())
			base := int64(i) * v.ZoneSectors()
			var inflight []*vclock.Future
			for off := int64(0); off+serveChunk <= quota; off += serveChunk {
				for {
					fut, err := v.SubmitWrite(id, base+off, buf, 0)
					if err == nil {
						inflight = append(inflight, fut)
						break
					}
					if !errors.Is(err, volmgr.ErrThrottled) {
						serveFatal("submit:", err)
					}
					clk.Sleep(500 * time.Microsecond)
				}
				if len(inflight) >= window {
					if err := inflight[0].Wait(); err != nil {
						serveFatal("write:", err)
					}
					inflight = inflight[1:]
				}
			}
			for _, fut := range inflight {
				if err := fut.Wait(); err != nil {
					serveFatal("write:", err)
				}
			}
		})
	}
	start := clk.Now()
	wg.Wait()
	elapsed := clk.Now() - start

	stats := v.TenantStats()
	breaches := v.Alarm().Check()
	bar, barOK := v.Alarm().Bar()
	if err := v.Close(); err != nil {
		serveFatal("close volume:", err)
	}
	// Hand the open-zone slots back: a real serving stack finishes a
	// shard's zone when the tenant goes cold.
	for z := 0; z < v.NumZones(); z++ {
		if err := v.FinishZone(z); err != nil {
			serveFatal("finish zone:", err)
		}
	}

	fmt.Printf("=== serve: %d arrays x %d devices, volume %q, %d tenants, %d sectors/tenant; dev a%d/%d slowed %.0fx ===\n",
		serveArrays, serveDevs, v.Name(), serveTenants, quota, serveArrays-1, serveSlowDev, serveSlowFact)
	fmt.Printf("burst completed in %v of virtual time\n", elapsed)

	fmt.Println("\nextent map (volume zone -> array/zone):")
	for i, e := range v.ExtentMap() {
		fmt.Printf("  z%-2d -> %s/z%-3d", e.Index, e.Array, e.Zone)
		if (i+1)%4 == 0 || i == v.NumZones()-1 {
			fmt.Println()
		}
	}

	fmt.Println("\nper-tenant QoS:")
	fmt.Printf("  %-7s %2s %9s %6s %6s %8s %10s %10s %12s %s\n",
		"tenant", "w", "accepted", "shed", "done", "MiB", "p50", "p99", "qdelay p99", "limit")
	for _, st := range stats {
		limit := "-"
		for _, tc := range tenants {
			if tc.ID == st.ID && tc.RateSectorsPerSec > 0 {
				limit = fmt.Sprintf("%d sec/s", tc.RateSectorsPerSec)
			}
		}
		fmt.Printf("  %-7s %2d %9d %6d %6d %8.1f %10v %10v %12v %s\n",
			st.ID, st.Weight, st.Accepted, st.Shed, st.CompletedOps,
			float64(st.CompletedBytes)/(1<<20),
			st.Latency.Percentile(50).Round(time.Microsecond),
			st.Latency.Percentile(99).Round(time.Microsecond),
			st.QueueDelay.Percentile(99).Round(time.Microsecond), limit)
	}

	if barOK {
		fmt.Printf("\nslo alarm (per-tenant p99 objective %v):\n", bar)
	} else {
		fmt.Println("\nslo alarm (still warming up):")
	}
	if len(breaches) == 0 {
		fmt.Println("  no tenants in breach")
	}
	for _, b := range breaches {
		fmt.Printf("  BREACH %-7s p99 %v > bar %v (%d samples)\n",
			b.Tenant, b.P99.Round(time.Microsecond), b.Bar.Round(time.Microsecond), b.Samples)
	}

	fmt.Println("\nper-tenant array attribution (most implicated first):")
	for _, st := range stats {
		fmt.Printf("  %-7s", st.ID)
		for _, at := range v.TenantArrayAttribution(st.ID) {
			fmt.Printf("  %s: ops=%d errs=%d mean=%v", at.Array, at.Ops, at.Errors,
				at.MeanLat.Round(time.Microsecond))
		}
		fmt.Println()
	}

	incidents := m.CheckIncidents()
	fmt.Printf("\nincidents filed: %d\n", len(incidents))
	for _, inc := range incidents {
		t := inc.Trigger()
		fmt.Printf("  %-10s tenant=%-7s array=%s  %s\n", t.Kind, t.Tenant, t.Array, t.Detail)
	}

	fmt.Println("\narrays:")
	for _, a := range m.Arrays() {
		fmt.Printf("  %s: %d logical zones, %d free\n", a.ID(), a.Volume().NumZones(), a.FreeZones())
	}

	if err := m.Close(); err != nil {
		serveFatal("close manager:", err)
	}
}

func serveFatal(msg string, err error) {
	fmt.Fprintln(os.Stderr, "serve:", msg, err)
	os.Exit(1)
}
