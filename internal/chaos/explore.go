package chaos

import (
	"fmt"

	"raizn/internal/zns"
)

// Options controls an exploration.
type Options struct {
	// Seed drives every random choice (the rand power-loss variant). The
	// same seed always reproduces the same exploration bit for bit.
	Seed int64
	// Variants limits which power-loss variants run per crash point.
	// Empty means all three.
	Variants []Variant
	// MaxPoints caps how many census crossings are explored; points are
	// sampled evenly across the census. Zero explores every crossing.
	MaxPoints int
	// BreakRecovery plants an unjournaled garbage write in every crash
	// snapshot before recovery runs. Test-only: it must make the checker
	// report a violation at every crash point, proving the oracle can see.
	BreakRecovery bool
}

func (o Options) variants() []Variant {
	if len(o.Variants) > 0 {
		return o.Variants
	}
	return []Variant{VarFlushed, VarAll, VarRand}
}

// Result summarizes an exploration.
type Result struct {
	Census     []CrashPoint // every crossing the scenario makes
	Explored   int          // crash+recover runs performed
	Recovered  int          // runs that recovered with zero violations
	Violations []Violation
}

// Census runs the scenario once, crash-free, and returns the crash points
// it crosses in order. This is the enumeration the explorer targets; the
// CLI prints it so a user can pick crossings to replay.
func Census(s *Scenario, seed int64) ([]CrashPoint, error) {
	census, _, err := runScenario(s, nil, -1, VarFlushed, seed)
	return census, err
}

// occOf returns the ordinal of census[idx] among same-named crossings.
func occOf(census []CrashPoint, idx int) int {
	occ := 0
	for i := 0; i < idx; i++ {
		if census[i].Name == census[idx].Name {
			occ++
		}
	}
	return occ
}

// Explore enumerates the scenario's crash points and, for each selected
// crossing and variant, crashes there, recovers, and checks every
// contract. Violations identify the crash coordinates, so any of them can
// be handed to Shrink / Replay.
func Explore(s *Scenario, opt Options) (*Result, error) {
	census, _, err := runScenario(s, nil, -1, VarFlushed, opt.Seed)
	if err != nil {
		return nil, fmt.Errorf("chaos: census: %w", err)
	}
	res := &Result{Census: census}

	indices := make([]int, 0, len(census))
	if opt.MaxPoints > 0 && opt.MaxPoints < len(census) {
		last := -1
		for i := 0; i < opt.MaxPoints; i++ {
			idx := i * len(census) / opt.MaxPoints
			if idx != last {
				indices = append(indices, idx)
				last = idx
			}
		}
	} else {
		for i := range census {
			indices = append(indices, i)
		}
	}

	for _, idx := range indices {
		occ := occOf(census, idx)
		for _, vr := range opt.variants() {
			res.Explored++
			_, cap, err := runScenario(s, census, idx, vr, opt.Seed)
			if err != nil {
				res.Violations = append(res.Violations, Violation{
					Rule: "nondeterminism", Detail: err.Error(),
					Point: census[idx].Name, Occ: occ, Index: idx, Variant: vr,
				})
				continue
			}
			if opt.BreakRecovery {
				sabotage(s, cap)
			}
			vios := checkRecovery(s, cap)
			for i := range vios {
				vios[i].Point = census[idx].Name
				vios[i].Occ = occ
				vios[i].Index = idx
				vios[i].Variant = vr
			}
			res.Violations = append(res.Violations, vios...)
			if len(vios) == 0 {
				res.Recovered++
			}
		}
	}
	return res, nil
}

// sabotage writes one sector of unjournaled garbage at the write pointer
// of the first writable data zone of the first live clone — a byte no
// durable event explains, which a sound checker must flag. The choice is
// deterministic so a broken-recovery repro replays exactly.
func sabotage(s *Scenario, cap *capture) {
	dataZones := s.Dev.NumZones - s.Vol.ReservedZones()
	for _, c := range cap.Clones {
		if c.Failed() {
			continue
		}
		cfg := c.Config()
		for z := 0; z < dataZones; z++ {
			zd := c.Zone(z)
			switch zd.State {
			case zns.ZoneFull, zns.ZoneReadOnly, zns.ZoneOffline:
				continue
			}
			rel := zd.WP - c.ZoneStart(z)
			if rel >= cfg.ZoneCap {
				continue
			}
			buf := make([]byte, cfg.SectorSize)
			for i := range buf {
				buf[i] = 0xA5
			}
			// The wp advances at submit and any access to the bytes
			// finishes their copy first; buf is never reused, so no
			// completion is needed.
			c.Write(zd.WP, buf, 0)
			return
		}
	}
}
