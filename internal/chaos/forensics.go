package chaos

import (
	"fmt"
	"strings"

	"raizn/internal/obs/flight"
)

// Automated incident forensics: a crash capture snapshots the run's
// flight recorder at the crash instant. The functions here replay a
// crash and render that black box as the deterministic incident report
// a real deployment would file — trigger, suspect ranking, merged
// span/journal timeline, metric deltas, and the replay seed that
// reproduces the crash.

// renderForensics renders the capture's frozen recorder under trig,
// stamped with the crash instant.
func renderForensics(cap *capture, trig flight.Trigger) (string, error) {
	var sb strings.Builder
	if err := cap.rec.Incident(trig).WriteReport(&sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// CrashForensics crashes the scenario at census crossing index with the
// given power-loss variant and renders the incident report of the black
// box captured at the crash. The report is a pure function of (scenario,
// index, variant, seed) — two identically seeded calls render
// byte-identical output, which CI diffs.
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
	return renderForensics(cap, flight.Trigger{
		Kind: flight.TrigDeviceHealth,
		Detail: fmt.Sprintf("simulated power loss at %s (crossing %d, variant %s)",
			cap.point, index, vr),
		Dev:        cap.point.Src,
		Zone:       cap.point.Zone,
		ReplaySeed: repro.SeedString(),
	})
}

// ForensicsFor renders the incident report for an oracle violation: the
// crash is replayed at the violation's coordinates and the black box
// captured at the crash is filed under an oracle-violation trigger
// carrying the violated rule and the replay seed that reproduces it.
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
	return renderForensics(cap, flight.Trigger{
		Kind:       flight.TrigOracle,
		Detail:     fmt.Sprintf("%s: %s", v.Rule, v.Detail),
		Dev:        cap.point.Src,
		Zone:       cap.point.Zone,
		ReplaySeed: ReproFor(s, v, opt).SeedString(),
	})
}
