// Command raizn-inspect builds a demo RAIZN array, applies an optional
// scripted workload, and dumps volume, logical-zone, and per-device
// physical-zone state — the debugging view of the address-space layout
// of §4.1 — plus the device-health and scrub-progress view of the
// background scrub subsystem. With -serve it instead dumps the
// multi-tenant serving stack: a volume's extent map across hosted
// arrays, the per-tenant QoS table, and the SLO alarm. With -incident it
// runs the incident-forensics demo: the flight recorder rides a workload
// whose tail slows one device, its tail sampler keeps the first slow
// span and trips, and the frozen black box renders its deterministic
// incident report.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"raizn/internal/obs"
	"raizn/internal/obs/flight"
	"raizn/internal/raizn"
	"raizn/internal/scrub"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func main() {
	fillZones := flag.Int("fill", 2, "logical zones to fill before dumping")
	partial := flag.Int("partial", 24, "extra sectors to write into the next zone")
	su := flag.Int64("su", 16, "stripe unit size in sectors")
	engine := flag.String("engine", "logged", "parity-persistence engine: logged or zraid")
	degraded := flag.Bool("degraded", false, "fail device 0 before dumping")
	rot := flag.Int("rot", 0, "seeded single-sector corruptions to inject into filled zones")
	rotSeed := flag.Int64("rot-seed", 1, "seed for corruption placement")
	doScrub := flag.Bool("scrub", false, "run one repair scrub pass before dumping")
	trace := flag.Bool("trace", false, "trace a mixed read/write workload: per-phase breakdown, queue-depth timeline, slow IOs the flight recorder's tail sampler kept")
	zones := flag.Bool("zones", false, "zone-state observability: heatmap, occupancy timeline, lifetime stats, layered WA report")
	serve := flag.Bool("serve", false, "multi-tenant serving view: extent map, per-tenant QoS table, SLO alarm breaches")
	incident := flag.Bool("incident", false, "incident-forensics demo: flight-record a workload, freeze on the first span the tail sampler keeps as slow, print the deterministic incident report")
	slowDev := flag.Int("slow-dev", 2, "device to slow during the traced workload (with -trace/-incident)")
	slowFactor := flag.Float64("slow-factor", 8, "service-time multiplier applied to -slow-dev (with -trace/-incident)")
	flag.Parse()

	clk := vclock.New()
	if *serve {
		clk.Run(func() { runServeView(clk) })
		return
	}
	if *incident {
		clk.Run(func() { runIncident(clk, *slowDev, *slowFactor) })
		return
	}
	clk.Run(func() {
		cfg := zns.DefaultConfig()
		cfg.NumZones = 12
		cfg.ZoneSize = 1280
		cfg.ZoneCap = 1024
		rcfg := raizn.DefaultConfig()
		rcfg.StripeUnitSectors = *su
		switch *engine {
		case "logged":
		case "zraid":
			rcfg.ParityEngine = raizn.EngineZRAID
			// Three PP slots (stride su+1) in each device's PP zone.
			cfg.ZRWASectors = 3 * (*su + 1)
		default:
			fmt.Fprintf(os.Stderr, "unknown -engine %q (want logged or zraid)\n", *engine)
			os.Exit(1)
		}
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(clk, cfg)
		}
		tr := obs.NewTracer(clk, obs.Config{})
		rcfg.Tracer = tr
		jrn := obs.NewJournal(clk, obs.JournalConfig{Capacity: 16384})
		if *zones {
			// Enable before the first write so lifetime accounting is exact.
			jrn.Enable()
			rcfg.Journal = jrn
		}
		vol, err := raizn.Create(clk, devs, rcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}

		buf := make([]byte, 32*vol.SectorSize())
		for z := 0; z < *fillZones && z < vol.NumZones(); z++ {
			base := int64(z) * vol.ZoneSectors()
			for off := int64(0); off < vol.ZoneSectors(); off += 32 {
				vol.Write(base+off, buf, 0)
			}
		}
		if *partial > 0 {
			base := int64(*fillZones) * vol.ZoneSectors()
			for off := 0; off+32 <= *partial; off += 32 {
				vol.Write(base+int64(off), buf, 0)
			}
			if rem := int64(*partial % 32); rem > 0 {
				vol.Write(base+int64(*partial)-rem, buf[:rem*int64(vol.SectorSize())], 0)
			}
		}
		vol.Flush()

		if *trace {
			if *slowDev < 0 || *slowDev >= len(devs) {
				fmt.Fprintf(os.Stderr, "trace: -slow-dev %d out of range\n", *slowDev)
				os.Exit(1)
			}
			runTrace(clk, vol, devs, tr, *fillZones, *slowDev, *slowFactor)
		}

		if *zones {
			runZones(vol, devs, clk, jrn, *fillZones)
			return
		}

		if *rot > 0 && *fillZones > 0 {
			rng := rand.New(rand.NewSource(*rotSeed))
			n := len(devs)
			seen := map[[2]int64]bool{}
			// One corruption per distinct (zone, stripe) pair, so the
			// request is capped at the number of pairs available.
			if pairs := int64(*fillZones) * vol.StripesPerZone(); int64(*rot) > pairs {
				fmt.Fprintf(os.Stderr, "rot: capping %d requested corruptions at %d (one per stripe of %d filled zones)\n",
					*rot, pairs, *fillZones)
				*rot = int(pairs)
			}
			for i := 0; i < *rot; i++ {
				var z, s int64
				for {
					z = int64(rng.Intn(*fillZones))
					s = rng.Int63n(vol.StripesPerZone())
					if !seen[[2]int64{z, s}] {
						seen[[2]int64{z, s}] = true
						break
					}
				}
				u := rng.Intn(n - 1)
				intra := rng.Int63n(*su)
				dev, sector := vol.UnitLocation(int(z), s, u)
				if err := devs[dev].CorruptSector(sector + intra); err != nil {
					fmt.Fprintln(os.Stderr, "corrupt:", err)
					os.Exit(1)
				}
			}
			fmt.Printf("injected %d seeded corruptions (seed %d)\n", *rot, *rotSeed)
		}

		if *doScrub {
			sb := scrub.New(scrub.Config{Clock: clk, Volume: vol})
			stats, err := sb.RunPass()
			if err != nil {
				fmt.Fprintln(os.Stderr, "scrub:", err)
				os.Exit(1)
			}
			fmt.Printf("scrub pass: %d stripes verified, %d skipped, %d mismatches, %d data + %d parity repaired, %d unrepaired, %.1f MiB read in %v\n",
				stats.Stripes, stats.Skipped, stats.Mismatches, stats.RepairedData,
				stats.RepairedParity, stats.Unrepaired, float64(stats.BytesRead)/(1<<20), stats.Elapsed)
		}

		if *degraded {
			vol.FailDevice(0)
		}

		fmt.Printf("volume: %d logical zones, zone=%d sectors, stripe=%d sectors, su=%d sectors, engine=%v, degraded=%d\n",
			vol.NumZones(), vol.ZoneSectors(), vol.StripeSectors(), *su, vol.ParityEngineKind(), vol.Degraded())
		st := vol.Stats()
		fmt.Printf("fua path: flushes issued=%d joined=%d\n", st.FUAFlushes, st.FUAFlushesJoined)
		if vol.ParityEngineKind() == raizn.EngineZRAID {
			st := vol.PPEngineStats()
			fmt.Printf("parity engine: pp_volatile=%dB pp_permanent=%dB fallbacks=%d\n",
				st.VolatileBytes, st.PermanentBytes, st.FallbackTotal)
		}
		fmt.Println("\nlogical zones:")
		for _, zd := range vol.ReportZones() {
			if zd.State == zns.ZoneEmpty {
				continue
			}
			fmt.Printf("  z%-3d %-8v wp=%-8d persisted=%-8d gen=%-3d remapped=%v\n",
				zd.Index, zd.State, zd.WP, zd.PersistedWP, vol.Generation(zd.Index), zd.Remapped)
		}

		fmt.Println("\nscrub progress (next stripe to verify / stripes per zone):")
		for z, pos := range vol.ScrubProgress() {
			if pos == 0 && vol.Zone(z).State == zns.ZoneEmpty {
				continue
			}
			fmt.Printf("  z%-3d %d/%d  checksum coverage=%d stripes\n",
				z, pos, vol.StripesPerZone(), vol.ChecksumCoverage(z))
		}

		fmt.Println("\ndevice health:")
		for i := range devs {
			re, corr := vol.DeviceErrorCounters(i)
			state := "healthy"
			switch {
			case vol.Degraded() == i:
				state = "failed (removed)"
			case re+corr > 0:
				state = "suspect"
			}
			fmt.Printf("  dev%d: %-16s read-errors=%-4d corruptions=%d\n", i, state, re, corr)
		}

		fmt.Println("\nphysical zones (per device):")
		for i, d := range devs {
			if *degraded && i == 0 {
				fmt.Printf("  dev%d: FAILED\n", i)
				continue
			}
			fmt.Printf("  dev%d:", i)
			for _, zd := range d.ReportZones() {
				if zd.State == zns.ZoneEmpty {
					continue
				}
				tag := ""
				if role := vol.PhysZoneRole(zd.Index); role != "data" {
					tag = "[" + role + "]"
				}
				fmt.Printf(" z%d%s=%v/%d", zd.Index, tag, zd.State, zd.WP-d.ZoneStart(zd.Index))
			}
			w, r, fl, rs := d.Counters()
			fmt.Printf("  [written=%dKiB read=%dKiB flushes=%d resets=%d]\n", w>>10, r>>10, fl, rs)
		}
	})
}

// The slow-IO views' tail sampler: a root span is kept when it ran
// longer than tailMultiple× the running p99 of its op's earlier spans,
// once tailWarmup of them have completed.
const (
	tailMultiple = 3
	tailWarmup   = 32
)

// runIncident is the end-to-end forensics demo: the full black-box
// stack — metrics registry, event journal, enabled tracer, flight
// recorder — rides a demo array through the mixed workload, whose tail
// slows one device. The first span the recorder's tail sampler keeps
// freezes it with a slow-io trigger, and the incident report renders to
// stdout. Everything runs on the virtual clock, so two invocations print
// byte-identical reports (CI diffs them).
func runIncident(clk *vclock.Clock, slowDev int, factor float64) {
	cfg := zns.DefaultConfig()
	cfg.NumZones = 12
	cfg.ZoneSize = 1280
	cfg.ZoneCap = 1024
	devs := make([]*zns.Device, 5)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, cfg)
	}
	if slowDev < 0 || slowDev >= len(devs) {
		fmt.Fprintf(os.Stderr, "incident: -slow-dev %d out of range\n", slowDev)
		os.Exit(1)
	}
	reg := obs.NewRegistry()
	jrn := obs.NewJournal(clk, obs.JournalConfig{Capacity: 16384})
	jrn.Enable()
	tr := obs.NewTracer(clk, obs.Config{})
	tr.Enable()
	rcfg := raizn.DefaultConfig()
	rcfg.Metrics = reg
	rcfg.Tracer = tr
	rcfg.Journal = jrn
	vol, err := raizn.Create(clk, devs, rcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	rec := flight.New(flight.Config{
		Clock: clk, Registry: reg, Journal: jrn, Label: "demo",
		Degraded: func() bool { return vol.Degraded() >= 0 },
		Multiple: tailMultiple, MinSamples: tailWarmup,
	})
	tr.SetObserver(rec)

	var inc *flight.Recorder
	runMixed(vol, devs[slowDev], 0, factor, func(slowAt int) {
		if inc != nil {
			return
		}
		if kept := len(rec.Spans()); kept > 0 {
			inc = rec.Incident(flight.Trigger{
				Kind: flight.TrigSlowIO,
				Detail: fmt.Sprintf("flight recorder kept %d IO(s) over %dx the running p99; dev%d running %.0fx slow since op %d",
					kept, tailMultiple, slowDev, factor, slowAt),
				Dev:  slowDev,
				Zone: -1,
			})
		}
	})
	if inc == nil {
		fmt.Fprintln(os.Stderr, "incident: no span was kept as slow; try a higher -slow-factor")
		os.Exit(1)
	}
	if err := inc.WriteReport(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runTrace drives the mixed workload with tracing enabled and a flight
// recorder attached, and prints the critical-path breakdown, the device
// queue-depth timeline, and the span trees the recorder kept as slow.
func runTrace(clk *vclock.Clock, vol *raizn.Volume, devs []*zns.Device, tr *obs.Tracer, fillZones, slowDev int, factor float64) {
	// Write into a fresh zone past the partial one so the sequential-write
	// constraint holds whatever -fill/-partial were.
	zone := fillZones + 1
	if zone >= vol.NumZones() {
		fmt.Fprintln(os.Stderr, "trace: no free zone left after -fill")
		os.Exit(1)
	}
	rec := flight.New(flight.Config{Clock: clk, Multiple: tailMultiple, MinSamples: tailWarmup})
	tr.SetObserver(rec)
	tr.Enable()
	ops, slowAt := runMixed(vol, devs[slowDev], int64(zone)*vol.ZoneSectors(), factor, nil)
	tr.Disable()
	tr.SetObserver(nil)

	fmt.Printf("=== trace: %d writes + %d reads (32 sectors each) in zone %d; dev%d slowed %.0fx from op %d ===\n",
		ops, ops-1, zone, slowDev, factor, slowAt)
	roots := tr.Snapshot()

	fmt.Println("\nper-phase critical path:")
	obs.Analyze(roots).Write(os.Stdout)

	fmt.Println("\ndevice queue depth:")
	obs.WriteTimeline(os.Stdout, obs.QueueDepthTimeline(roots), 24)

	kept := rec.Spans()
	fmt.Printf("\nflight recorder kept %d slow IOs (over %dx the running per-op p99, after %d warm-up spans):\n",
		len(kept), tailMultiple, tailWarmup)
	const maxTrees = 3
	for i, s := range kept {
		if i == maxTrees {
			fmt.Printf("... %d more kept span trees omitted\n", len(kept)-maxTrees)
			break
		}
		fmt.Println()
		fmt.Print(obs.FormatSpanTree(s))
	}
	fmt.Println()
}

// runMixed is the workload of -trace and -incident: up to 128 writes of
// 32 sectors from base, each but the first followed by a read of a
// random chunk already written (fixed seed), with dev running factor×
// slower from three quarters of the way through. after, when non-nil,
// runs after every op.
func runMixed(vol *raizn.Volume, dev *zns.Device, base int64, factor float64, after func(slowAt int)) (ops, slowAt int) {
	const chunk = 32
	ops = int(min(vol.ZoneSectors()/chunk, 128))
	slowAt = ops * 3 / 4
	wbuf := make([]byte, chunk*vol.SectorSize())
	rbuf := make([]byte, chunk*vol.SectorSize())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < ops; i++ {
		if i == slowAt {
			dev.SetSlowdown(factor)
		}
		if err := vol.Write(base+int64(i)*chunk, wbuf, 0); err != nil {
			fmt.Fprintln(os.Stderr, "write:", err)
			os.Exit(1)
		}
		if i > 0 {
			off := int64(rng.Intn(i)) * chunk
			if err := vol.Read(base+off, rbuf); err != nil {
				fmt.Fprintln(os.Stderr, "read:", err)
				os.Exit(1)
			}
		}
		if after != nil {
			after(slowAt)
		}
	}
	dev.SetSlowdown(1)
	return ops, slowAt
}
