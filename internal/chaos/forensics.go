package chaos

import (
	"fmt"
	"strings"

	"raizn/internal/obs/flight"
	"raizn/internal/raizn"
)

// Automated incident forensics: every chaos run periodically persists
// its flight recorder through the array's metadata path, so a crash
// capture carries a recent black box on its clones. The functions here
// replay a crash, recover that box from the surviving clones, and
// render the deterministic incident report a real deployment would
// file — trigger, suspect ranking, merged span/journal timeline,
// metric deltas, and the replay seed that reproduces the crash.

// recoverBox pulls the newest persisted flight black box off a crash
// snapshot's clones: devices are scanned in slot order and the first
// intact copy wins. Runs on the capture's clock.
func recoverBox(s *Scenario, cap *capture) ([]byte, bool) {
	var data []byte
	var ok bool
	cap.Clk.Run(func() {
		for _, c := range cap.Clones {
			if c.Failed() {
				continue
			}
			d, found, err := raizn.RecoverBlackBox(c, s.volConfig())
			if err == nil && found {
				data, ok = d, true
				return
			}
		}
	})
	return data, ok
}

// renderForensics recovers the black box from a crash capture and
// renders the incident report under trig.
func renderForensics(s *Scenario, cap *capture, trig flight.Trigger) (string, error) {
	data, ok := recoverBox(s, cap)
	if !ok {
		return "", fmt.Errorf("chaos: no persisted black box survived the crash at %s", cap.point)
	}
	box, err := flight.Unmarshal(data)
	if err != nil {
		return "", fmt.Errorf("chaos: recovered black box: %w", err)
	}
	var sb strings.Builder
	if err := flight.FromBox(box, &trig).WriteReport(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// CrashForensics crashes the scenario at census crossing index with the
// given power-loss variant, recovers the persisted black box from the
// post-crash clones, and renders its incident report. The report is a
// pure function of (scenario, index, variant, seed) — two identically
// seeded calls render byte-identical output, which CI diffs.
func CrashForensics(s *Scenario, index int, vr Variant, opt Options) (string, error) {
	census, _, err := runScenario(s, nil, -1, VarFlushed, opt.Seed)
	if err != nil {
		return "", fmt.Errorf("chaos: census: %w", err)
	}
	if index < 0 || index >= len(census) {
		return "", fmt.Errorf("chaos: crossing %d out of range (census has %d)", index, len(census))
	}
	_, cap, err := runScenario(s, census, index, vr, opt.Seed)
	if err != nil {
		return "", err
	}
	repro := &Repro{
		Scenario: s.Name, Mask: fullMask(len(s.Ops)),
		Point: cap.point.Name, Occ: occOf(census, index),
		Variant: vr, Seed: opt.Seed,
	}
	return renderForensics(s, cap, flight.Trigger{
		Kind: flight.TrigDeviceHealth,
		Detail: fmt.Sprintf("simulated power loss at %s (crossing %d, variant %s)",
			cap.point, index, vr),
		Dev:        cap.point.Src,
		Zone:       cap.point.Zone,
		ReplaySeed: repro.SeedString(),
	})
}

// ForensicsFor renders the incident report for an oracle violation: the
// crash is replayed at the violation's coordinates, the persisted black
// box recovered from the clones, and the report filed under an
// oracle-violation trigger carrying the violated rule and the replay
// seed that reproduces it.
func ForensicsFor(s *Scenario, v Violation, opt Options) (string, error) {
	census, _, err := runScenario(s, nil, -1, VarFlushed, opt.Seed)
	if err != nil {
		return "", fmt.Errorf("chaos: census: %w", err)
	}
	if v.Index < 0 || v.Index >= len(census) {
		return "", fmt.Errorf("chaos: violation crossing %d out of range (census has %d)", v.Index, len(census))
	}
	_, cap, err := runScenario(s, census, v.Index, v.Variant, opt.Seed)
	if err != nil {
		return "", err
	}
	return renderForensics(s, cap, flight.Trigger{
		Kind:       flight.TrigOracle,
		Detail:     fmt.Sprintf("%s: %s", v.Rule, v.Detail),
		Dev:        cap.point.Src,
		Zone:       cap.point.Zone,
		ReplaySeed: ReproFor(s, v, opt).SeedString(),
	})
}
