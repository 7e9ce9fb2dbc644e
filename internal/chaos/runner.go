package chaos

import (
	"fmt"
	"math/rand"
	"sync"

	"raizn/internal/obs"
	"raizn/internal/obs/flight"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// CrashPoint is one crossing of a named instrumentation point, as
// recorded by the census run. The explorer crashes the scenario at each
// one in turn.
type CrashPoint struct {
	Name string // dotted point name (obs.HookPoint taxonomy)
	Src  int    // device slot, or obs.SrcLogical
	Zone int    // zone the point concerns, or -1
	Arg  int64  // point-specific detail
}

func (p CrashPoint) String() string {
	return fmt.Sprintf("%s src=%d z=%d arg=%d", p.Name, p.Src, p.Zone, p.Arg)
}

// Variant selects how much submitted-but-unflushed data survives the
// simulated power loss at a crash point.
type Variant int

const (
	// VarFlushed keeps only each zone's persisted prefix (the most
	// pessimistic legal outcome).
	VarFlushed Variant = iota
	// VarAll keeps everything submitted (the most optimistic outcome).
	VarAll
	// VarRand draws a legal cut per zone from a seeded source.
	VarRand
	numVariants
)

var variantNames = [numVariants]string{"flushed", "all", "rand"}

func (v Variant) String() string {
	if v < 0 || v >= numVariants {
		return fmt.Sprintf("variant(%d)", int(v))
	}
	return variantNames[v]
}

// parseVariant is the inverse of Variant.String.
func parseVariant(s string) (Variant, error) {
	for i, n := range variantNames {
		if n == s {
			return Variant(i), nil
		}
	}
	return 0, fmt.Errorf("chaos: unknown variant %q", s)
}

// capture is the frozen state of a run at the instant of a crash: the
// array's crash snapshot (post-power-loss clones bound to a fresh clock
// recovery will run on, the event journal up to the crash, the mount
// config), the workload model and a frozen copy of the flight recorder.
type capture struct {
	ArrayCrash
	model *Model
	rec   *flight.Recorder
	point CrashPoint
	index int // census index of the crossing
}

// runCtx is the mutable state of one scenario execution. The hook runs on
// workload and completion goroutines; rc.mu serializes it against the op
// loop (the virtual clock already orders them deterministically, the lock
// is for memory safety).
type runCtx struct {
	s    *Scenario
	clk  *vclock.Clock
	devs []*zns.Device
	vol  *raizn.Volume
	jrn  *obs.Journal
	rec  *flight.Recorder
	seed int64

	mu       sync.Mutex
	model    *Model
	census   []CrashPoint // target < 0: crossings recorded here
	expect   []CrashPoint // target >= 0: census to validate against
	target   int          // census index to crash at; -1 = census mode
	variant  Variant
	n        int // crossings so far
	cap      *capture
	stop     bool
	runErr   error
	faultOcc map[string]int
}

func (rc *runCtx) setErrLocked(err error) {
	if rc.runErr == nil && err != nil {
		rc.runErr = err
		rc.stop = true
	}
}

func (rc *runCtx) stopped() bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.stop
}

// hook is the single crash-point hook attached to the volume and every
// device. It counts crossings, validates determinism against the census,
// captures the crash snapshot at the target crossing, applies anchored
// faults, and feeds the few model fields that only hooks can see.
func (rc *runCtx) hook(p obs.HookPoint) {
	rc.mu.Lock()
	// Model updates driven by sub-op durability boundaries.
	if p.Zone >= 0 && p.Zone < len(rc.model.Zones) {
		zm := &rc.model.Zones[p.Zone]
		switch p.Name {
		case "raizn.write.done":
			if zm.AckedWP < p.Arg {
				zm.AckedWP = p.Arg
			}
		case "raizn.reset.wal":
			zm.WALDurable = true
		case "raizn.reset.phys":
			zm.PhysDone = true
		}
	}

	idx := rc.n
	rc.n++
	cp := CrashPoint{Name: p.Name, Src: p.Src, Zone: p.Zone, Arg: p.Arg}
	if rc.target < 0 {
		rc.census = append(rc.census, cp)
	} else if rc.runErr == nil && rc.cap == nil {
		// Crossings after the capture are not validated: the op loop stops
		// at the next op boundary while background continuations (the
		// metadata-zone reclaim) keep firing points the census interleaved
		// with later ops.
		if idx < len(rc.expect) && rc.expect[idx].Name != p.Name {
			rc.setErrLocked(fmt.Errorf(
				"chaos: nondeterministic crossing %d: census saw %q, run saw %q",
				idx, rc.expect[idx].Name, p.Name))
		} else if idx == rc.target && rc.cap == nil {
			rc.captureLocked(cp, idx)
			rc.stop = true
		}
	}

	// Anchored faults fire on the occ-th crossing of their point name,
	// after any capture at the same crossing (the crash sees the world
	// as it was when the point was reached).
	occ := rc.faultOcc[p.Name]
	rc.faultOcc[p.Name] = occ + 1
	var fire []Fault
	for _, f := range rc.s.Faults {
		if f.Point == p.Name && f.Occ == occ {
			fire = append(fire, f)
		}
	}
	rc.mu.Unlock()
	for _, f := range fire {
		rc.applyFault(f)
	}
}

// captureLocked snapshots every device with the variant's power-loss cut
// applied, plus the journal, the model and the flight recorder. Caller
// holds rc.mu; device locks are free (hooks fire outside them).
func (rc *runCtx) captureLocked(cp CrashPoint, idx int) {
	clk := vclock.New()
	clones := make([]*zns.Device, len(rc.devs))
	for i, d := range rc.devs {
		var rng *rand.Rand
		var cuts map[int]int64
		switch rc.variant {
		case VarAll:
			cuts = make(map[int]int64, d.Config().NumZones)
			for z := 0; z < d.Config().NumZones; z++ {
				cuts[z] = 1 << 62 // clamped to the zone's submitted wp
			}
		case VarRand:
			rng = rand.New(rand.NewSource(rc.seed*1000003 + int64(idx)*257 + int64(i)))
		}
		clones[i] = d.CrashClone(clk, rng, cuts)
	}
	rc.cap = &capture{
		ArrayCrash: ArrayCrash{
			Clk:     clk,
			Clones:  clones,
			Events:  rc.jrn.Events(),
			Dropped: rc.jrn.Dropped(),
			Config:  rc.s.volConfig(),
		},
		model: rc.model.clone(),
		rec:   rc.rec.Snapshot(),
		point: cp,
		index: idx,
	}
}

// applyFault applies an anchored fault to the live run. Errors are
// ignored: a shrunken schedule may have already removed the op that made
// the fault applicable (e.g. the device is already failed).
func (rc *runCtx) applyFault(f Fault) {
	switch f.Kind {
	case OpFailDevice:
		if rc.vol.FailDevice(f.Dev) == nil {
			rc.mu.Lock()
			rc.model.FailedDevs[f.Dev] = true
			rc.mu.Unlock()
		}
	case OpInjectReadError:
		rc.devs[f.Dev].InjectReadError(f.Sector)
	case OpCorruptSector:
		if rc.devs[f.Dev].CorruptSector(f.Sector) == nil {
			rc.markSuspect(f.Sector)
		}
	}
}

// markSuspect flags the logical zone backed by the physical zone holding
// the device sector (data zones map 1:1; metadata zones have no logical
// zone and are skipped).
func (rc *runCtx) markSuspect(sector int64) {
	z := int(sector / rc.s.Dev.ZoneSize)
	rc.mu.Lock()
	if z >= 0 && z < len(rc.model.Zones) {
		rc.model.Zones[z].Suspect = true
	}
	rc.mu.Unlock()
}

// runScenario executes the scenario once on a fresh array. With target <
// 0 it returns the census of crash points crossed. With target >= 0 it
// validates crossings against expect, captures a crash snapshot at the
// target crossing, and stops the workload at the next op boundary.
func runScenario(s *Scenario, expect []CrashPoint, target int, variant Variant, seed int64) ([]CrashPoint, *capture, error) {
	clk := vclock.New()
	devs := make([]*zns.Device, s.NumDev)
	for i := range devs {
		devs[i] = zns.NewDevice(clk, s.Dev)
	}
	jrn := obs.NewJournal(clk, obs.JournalConfig{Capacity: 1 << 15})
	jrn.Enable() // before Create, so array-setup IO is explainable too
	cfg := s.volConfig()
	cfg.Journal = jrn
	// Every scenario flies with the full black-box stack: metrics
	// registry, enabled tracer, and a flight recorder tail-sampling the
	// traffic. A crash capture snapshots the recorder at the crash
	// instant, so forensics can render it for any crossing.
	reg := obs.NewRegistry()
	tr := obs.NewTracer(clk, obs.Config{SinkCapacity: 256})
	tr.Enable()
	cfg.Metrics = reg
	cfg.Tracer = tr

	var vol *raizn.Volume
	var cerr error
	clk.Run(func() { vol, cerr = raizn.Create(clk, devs, cfg) })
	if cerr != nil {
		return nil, nil, fmt.Errorf("chaos: create: %w", cerr)
	}

	rec := flight.New(flight.Config{
		Clock: clk, Registry: reg, Journal: jrn, Label: s.Name,
		Degraded: func() bool { return vol.Degraded() >= 0 },
		// Chaos runs are short; start latency-based tail sampling almost
		// immediately so crash captures carry span evidence.
		MinSamples: 8,
	})
	tr.SetObserver(rec)

	rc := &runCtx{
		s: s, clk: clk, devs: devs, vol: vol, jrn: jrn, rec: rec, seed: seed,
		model: &Model{
			ZoneSectors: vol.ZoneSectors(),
			Zones:       make([]ZoneModel, vol.NumZones()),
			FailedDevs:  make([]bool, s.NumDev),
		},
		expect: expect, target: target, variant: variant,
		faultOcc: make(map[string]int),
	}
	vol.AttachHook(rc.hook)
	for i, d := range devs {
		d.AttachHook(rc.hook, i)
	}

	clk.Run(func() {
		for _, op := range s.Ops {
			if rc.stopped() {
				return
			}
			rc.applyOp(op)
			rec.Poll() // keep metric series moving between spans
		}
	})

	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.runErr != nil {
		return rc.census, nil, rc.runErr
	}
	if target >= 0 && rc.cap == nil {
		return rc.census, nil, fmt.Errorf(
			"chaos: target crossing %d never reached (run crossed %d points)", target, rc.n)
	}
	return rc.census, rc.cap, nil
}

// applyOp executes one workload step against the live volume and keeps
// the model in sync. Model fields are touched only under rc.mu; the
// blocking volume call runs unlocked (hooks take rc.mu re-entrantly
// otherwise).
func (rc *runCtx) applyOp(op Op) {
	switch op.Kind {
	case OpWrite:
		rc.mu.Lock()
		zm := &rc.model.Zones[op.Zone]
		start := zm.WrittenWP
		n := op.N
		if rem := rc.model.ZoneSectors - start; n > rem {
			n = rem
		}
		if n <= 0 || zm.Finished || zm.Resetting {
			rc.mu.Unlock()
			return
		}
		gen := zm.Gen
		zm.PendingEnd = start + n
		zm.WrittenWP = start + n
		rc.mu.Unlock()

		ss := rc.vol.SectorSize()
		buf := make([]byte, n*int64(ss))
		lba := int64(op.Zone)*rc.model.ZoneSectors + start
		fillPattern(buf, lba, gen, ss)
		err := rc.vol.Write(lba, buf, op.Flags)

		rc.mu.Lock()
		zm = &rc.model.Zones[op.Zone]
		zm.PendingEnd = 0
		if err != nil {
			rc.setErrLocked(fmt.Errorf("chaos: %s: %w", op, err))
		} else {
			if zm.AckedWP < start+n {
				zm.AckedWP = start + n
			}
			if op.Flags&(zns.FUA|zns.Preflush) != 0 && zm.FlushedWP < start+n {
				zm.FlushedWP = start + n
			}
		}
		rc.mu.Unlock()

	case OpFlush:
		err := rc.vol.Flush()
		rc.mu.Lock()
		if err != nil {
			rc.setErrLocked(fmt.Errorf("chaos: flush: %w", err))
		} else {
			for z := range rc.model.Zones {
				zm := &rc.model.Zones[z]
				if zm.FlushedWP < zm.WrittenWP {
					zm.FlushedWP = zm.WrittenWP
				}
				if zm.RepairPending {
					zm.Suspect, zm.RepairPending = false, false
				}
			}
		}
		rc.mu.Unlock()

	case OpReset:
		rc.mu.Lock()
		zm := &rc.model.Zones[op.Zone]
		zm.Resetting = true
		zm.WALDurable, zm.PhysDone = false, false
		zm.PreResetWP, zm.PreResetGen = zm.WrittenWP, zm.Gen
		rc.mu.Unlock()

		err := rc.vol.ResetZone(op.Zone)

		rc.mu.Lock()
		zm = &rc.model.Zones[op.Zone]
		zm.Resetting = false
		if err != nil {
			rc.setErrLocked(fmt.Errorf("chaos: %s: %w", op, err))
		} else {
			zm.Gen++
			zm.WrittenWP, zm.AckedWP, zm.FlushedWP, zm.PendingEnd = 0, 0, 0, 0
			zm.Finished, zm.Suspect, zm.RepairPending = false, false, false
			zm.WALDurable, zm.PhysDone = false, false
		}
		rc.mu.Unlock()

	case OpFinish:
		rc.mu.Lock()
		rc.model.Zones[op.Zone].Finishing = true
		rc.mu.Unlock()

		err := rc.vol.FinishZone(op.Zone)

		rc.mu.Lock()
		zm := &rc.model.Zones[op.Zone]
		zm.Finishing = false
		if err != nil {
			rc.setErrLocked(fmt.Errorf("chaos: %s: %w", op, err))
		} else {
			zm.Finished = true
			zm.AckedWP = zm.WrittenWP
			if zm.FlushedWP < zm.WrittenWP {
				zm.FlushedWP = zm.WrittenWP
			}
		}
		rc.mu.Unlock()

	case OpScrubZone:
		ok := true
		for st := int64(0); st < rc.vol.StripesPerZone(); st++ {
			if rc.stopped() {
				return
			}
			if _, err := rc.vol.ScrubStripe(op.Zone, st); err != nil {
				rc.mu.Lock()
				rc.setErrLocked(fmt.Errorf("chaos: %s stripe %d: %w", op, st, err))
				rc.mu.Unlock()
				ok = false
				break
			}
		}
		if ok {
			rc.mu.Lock()
			zm := &rc.model.Zones[op.Zone]
			if zm.Suspect {
				zm.RepairPending = true // durable only after the next flush
			}
			rc.mu.Unlock()
		}

	case OpMaintain:
		if err := rc.vol.Maintain(); err != nil {
			rc.mu.Lock()
			rc.setErrLocked(fmt.Errorf("chaos: maintain: %w", err))
			rc.mu.Unlock()
		}

	case OpFailDevice:
		if err := rc.vol.FailDevice(op.Dev); err != nil {
			rc.mu.Lock()
			rc.setErrLocked(fmt.Errorf("chaos: %s: %w", op, err))
			rc.mu.Unlock()
		} else {
			rc.mu.Lock()
			rc.model.FailedDevs[op.Dev] = true
			rc.mu.Unlock()
		}

	case OpInjectReadError:
		if err := rc.devs[op.Dev].InjectReadError(op.Sector); err != nil {
			rc.mu.Lock()
			rc.setErrLocked(fmt.Errorf("chaos: %s: %w", op, err))
			rc.mu.Unlock()
		}

	case OpCorruptSector:
		if err := rc.devs[op.Dev].CorruptSector(op.Sector); err != nil {
			rc.mu.Lock()
			rc.setErrLocked(fmt.Errorf("chaos: %s: %w", op, err))
			rc.mu.Unlock()
		} else {
			rc.markSuspect(op.Sector)
		}

	case OpReadCheck:
		rc.mu.Lock()
		zm := rc.model.Zones[op.Zone]
		rc.mu.Unlock()
		if zm.AckedWP == 0 || zm.Suspect {
			return
		}
		ss := rc.vol.SectorSize()
		buf := make([]byte, zm.AckedWP*int64(ss))
		lba := int64(op.Zone) * rc.model.ZoneSectors
		if err := rc.vol.Read(lba, buf); err != nil {
			rc.mu.Lock()
			rc.setErrLocked(fmt.Errorf("chaos: %s: %w", op, err))
			rc.mu.Unlock()
			return
		}
		want := make([]byte, len(buf))
		fillPattern(want, lba, zm.Gen, ss)
		for i := range buf {
			if buf[i] != want[i] {
				rc.mu.Lock()
				rc.setErrLocked(fmt.Errorf(
					"chaos: %s: content mismatch at byte %d (sector %d)",
					op, i, lba+int64(i/ss)))
				rc.mu.Unlock()
				return
			}
		}
	}
}
