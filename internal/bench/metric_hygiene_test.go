package bench

import (
	"fmt"
	"strings"
	"testing"

	"raizn/internal/blockdev"
	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/scrub"
	"raizn/internal/vclock"
	"raizn/internal/volmgr"
	"raizn/internal/zns"
)

// approvedPrefixes is the closed set of metric-family namespaces. A new
// subsystem earns its prefix by being added here, in the same commit
// that documents it — anything else is a typo'd or squatting name.
var approvedPrefixes = []string{
	"raizn_", "zns_", "blockdev_", "scrub_", "volmgr_",
}

// buildFullStack registers every metric-producing component in the tree
// against one registry: two raizn arrays (both parity engines, labeled),
// their zns devices, a conventional blockdev, a scrubber, and a volmgr
// with tenants. Light traffic materializes the lazily created series.
func buildFullStack(t *testing.T, clk *vclock.Clock, reg *obs.Registry) {
	t.Helper()
	newArray := func(label string, engine raizn.ParityEngine) *raizn.Volume {
		cfg := zns.DefaultConfig()
		cfg.NumZones = 8
		cfg.ZoneSize = 160
		cfg.ZoneCap = 128
		cfg.MaxOpenZones = 8
		cfg.MaxActiveZones = 10
		if engine == raizn.EngineZRAID {
			cfg.ZRWASectors = 34 // two PP slots (su=16 -> stride 17)
		}
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(clk, cfg)
			devs[i].RegisterMetrics(reg, fmt.Sprintf("zns_%s_dev%d", label, i))
		}
		rcfg := raizn.DefaultConfig()
		rcfg.Metrics = reg
		rcfg.MetricsLabel = label
		rcfg.ParityEngine = engine
		v, err := raizn.Create(clk, devs, rcfg)
		if err != nil {
			t.Fatalf("Create(%s): %v", label, err)
		}
		return v
	}
	v0 := newArray("a0", raizn.EngineLogged)
	v1 := newArray("a1", raizn.EngineZRAID)

	// Direct traffic lands in v0's last zone so the volmgr volume below
	// can own the early zones without colliding write pointers.
	buf := make([]byte, 16*v0.SectorSize())
	if err := v0.Write(int64(v0.NumZones()-1)*v0.ZoneSectors(), buf, 0); err != nil {
		t.Fatalf("write a0: %v", err)
	}
	if err := v1.Write(0, buf, 0); err != nil {
		t.Fatalf("write a1: %v", err)
	}

	sb := scrub.New(scrub.Config{Clock: clk, Volume: v0})
	sb.RegisterMetrics(reg)
	if _, err := sb.RunPass(); err != nil {
		t.Fatalf("scrub pass: %v", err)
	}

	bd := blockdev.NewDevice(clk, blockdev.DefaultConfig())
	bd.RegisterMetrics(reg, "blockdev_dev0")

	m := volmgr.NewManager(clk, volmgr.Config{Registry: reg})
	if _, err := m.AddArray("a0", v0); err != nil {
		t.Fatalf("AddArray: %v", err)
	}
	vol, err := m.CreateVolume("hyg", volmgr.VolumeSpec{
		Zones:   2,
		Engine:  volmgr.EngineConfig{QueueDepth: 4},
		Tenants: []volmgr.TenantConfig{{ID: "t0", Weight: 1}, {ID: "t1", Weight: 1}},
	})
	if err != nil {
		t.Fatalf("CreateVolume: %v", err)
	}
	fut, err := vol.SubmitWrite("t0", 0, buf, 0)
	if err != nil {
		t.Fatalf("SubmitWrite: %v", err)
	}
	if err := fut.Wait(); err != nil {
		t.Fatalf("volmgr write: %v", err)
	}
	if err := vol.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestMetricHygiene is the registry lint: every metric family registered
// by the full stack — labeled series included, with their labels cut off
// — must live under an approved prefix. It runs as an ordinary test, so
// a violating registration fails CI's test step.
func TestMetricHygiene(t *testing.T) {
	clk := vclock.New()
	reg := obs.NewRegistry()
	clk.Run(func() { buildFullStack(t, clk, reg) })

	snap := reg.Snapshot()
	var names []string
	for n := range snap.Counters {
		names = append(names, n)
	}
	for n := range snap.Gauges {
		names = append(names, n)
	}
	for n := range snap.Histograms {
		names = append(names, n)
	}
	if len(names) < 40 {
		t.Fatalf("full stack registered only %d metrics; the lint is not seeing the real surface", len(names))
	}

	seen := make(map[string]bool)
	for _, n := range names {
		fam, _, _ := strings.Cut(n, "{")
		if seen[fam] {
			continue
		}
		seen[fam] = true
		ok := false
		for _, p := range approvedPrefixes {
			if strings.HasPrefix(fam, p) {
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("metric family %q is outside the approved namespaces %v", fam, approvedPrefixes)
		}
	}
	// The FUA-path pair ("why is my fsync slow") must be on the surface
	// the lint walks, not just defined.
	for _, fam := range []string{"raizn_fua_flushes_total", "raizn_fua_flushes_joined_total"} {
		if !seen[fam] {
			t.Errorf("metric family %q is not registered by the full stack", fam)
		}
	}
}
