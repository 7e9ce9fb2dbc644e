package chaos

import (
	"reflect"
	"testing"
)

// TestStripeResetExplore is the acceptance gate: the stripe-write +
// metadata-flush + reset scenario crosses at least 30 crash points, the
// explorer recovers from a crash at every one under all three power-loss
// variants, and the contract checker reports zero violations.
func TestStripeResetExplore(t *testing.T) {
	res, err := Explore(StripeReset(), Options{Seed: 1})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	t.Logf("census=%d explored=%d recovered=%d violations=%d",
		len(res.Census), res.Explored, res.Recovered, len(res.Violations))
	if len(res.Census) < 30 {
		t.Errorf("census has %d crash points, want >= 30", len(res.Census))
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if res.Recovered != res.Explored {
		t.Errorf("recovered %d of %d runs", res.Recovered, res.Explored)
	}
}

// TestComposedExplore crashes the composed schedule (corruption + scrub +
// mid-write device failure + degraded IO + GC + reset) at a sampled set
// of points and requires clean recovery from all of them.
func TestComposedExplore(t *testing.T) {
	res, err := Explore(Composed(), Options{Seed: 7, MaxPoints: 40})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	t.Logf("census=%d explored=%d recovered=%d violations=%d",
		len(res.Census), res.Explored, res.Recovered, len(res.Violations))
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
}

// TestZRAIDOverflowExplore runs the zraid parity-engine scenario through
// the explorer: the census must cross both slot writes into device 4's PP
// zone and overflow appends to device 4's parity log (the schedule keeps
// three partial stripes live against two slots), and recovery must be
// violation-free at a sampled set of crossings under all three power-loss
// variants.
func TestZRAIDOverflowExplore(t *testing.T) {
	s := ZRAIDOverflow()
	census, err := Census(s, 11)
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	ppZone := s.Dev.NumZones - 1 // the last physical zone; metadata sits below it
	slots, overflows := 0, 0
	for _, cp := range census {
		if cp.Name != "raizn.pp.write" || cp.Src != 4 {
			continue
		}
		if cp.Zone == ppZone {
			slots++
		} else {
			overflows++
		}
	}
	if slots == 0 {
		t.Error("census never crossed a slot write on device 4")
	}
	if overflows < 7 {
		t.Errorf("census crossed %d overflow log appends on device 4, want one per round (7)", overflows)
	}

	res, err := Explore(s, Options{Seed: 11, MaxPoints: 40})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	t.Logf("census=%d explored=%d recovered=%d violations=%d",
		len(res.Census), res.Explored, res.Recovered, len(res.Violations))
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if res.Recovered != res.Explored {
		t.Errorf("recovered %d of %d runs", res.Recovered, res.Explored)
	}
}

// TestMDGCExplore runs the metadata-zone roll-over scenario through the
// explorer: the census must cross every raizn.mdgc.* point with at least
// two foreground roll-overs before the Maintain-driven ones, foreground
// partial-parity records must land between a roll-over's begin and done,
// one roll-over must pull a sibling device's log along, and recovery must
// be violation-free at a sampled set of crossings — one of them with two
// devices mid-roll — under all three power-loss variants.
func TestMDGCExplore(t *testing.T) {
	s := MDGC()
	census, err := Census(s, 13)
	if err != nil {
		t.Fatalf("census: %v", err)
	}
	count := map[string]int{}
	open, inWindow := false, 0
	for _, cp := range census {
		count[cp.Name]++
		switch cp.Name {
		case "raizn.mdgc.begin":
			open = true
		case "raizn.mdgc.done":
			open = false
		case "raizn.pp.write":
			if open {
				inWindow++
			}
		}
	}
	for _, name := range []string{"raizn.mdgc.begin", "raizn.mdgc.ckpt", "raizn.mdgc.reset", "raizn.mdgc.done"} {
		// Maintain alone rolls two logs on each of five devices.
		if count[name] < 2+10 {
			t.Errorf("census crossed %s %d times, want at least 2 foreground + 10 Maintain roll-overs", name, count[name])
		}
	}
	if inWindow < 2 {
		t.Errorf("%d foreground partial-parity appends landed inside a roll-over window, want >= 2", inWindow)
	}
	// The roll-over is array-wide: the last foreground one pulls a sibling
	// along, so a second device's begin comes before the first one's
	// checkpoint completes, and the sampled crossings below include one
	// with both devices mid-roll.
	const maxPoints = 40
	sampled := map[int]bool{}
	for k := 0; k < maxPoints; k++ {
		sampled[k*len(census)/maxPoints] = true // Explore's sampling rule
	}
	pulled, sampledInside := false, false
	rolling, prev := map[int]bool{}, ""
	for i, cp := range census {
		switch cp.Name {
		case "raizn.mdgc.begin":
			if prev != cp.Name {
				rolling = map[int]bool{} // a new round; an earlier one's reclaim may be in flight still
			}
			rolling[cp.Src] = true
			pulled = pulled || len(rolling) == 2
			prev = cp.Name
		case "raizn.mdgc.ckpt", "raizn.mdgc.reset":
			prev = cp.Name
		case "raizn.mdgc.done":
			delete(rolling, cp.Src)
			prev = cp.Name
		}
		sampledInside = sampledInside || len(rolling) == 2 && sampled[i]
	}
	if !pulled {
		t.Error("no roll-over pulled a sibling device along")
	}
	if !sampledInside {
		t.Errorf("none of the %d sampled crossings has two devices mid-roll", maxPoints)
	}

	res, err := Explore(s, Options{Seed: 13, MaxPoints: maxPoints})
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	t.Logf("census=%d explored=%d recovered=%d violations=%d",
		len(res.Census), res.Explored, res.Recovered, len(res.Violations))
	for _, v := range res.Violations {
		t.Errorf("violation: %v", v)
	}
	if res.Recovered != res.Explored {
		t.Errorf("recovered %d of %d runs", res.Recovered, res.Explored)
	}
}

// TestFUAStreamExplore checks the fua-stream scenarios do what their doc
// says — the all-FUA half (the first four writes) crosses no device flush,
// the interleaved half does — and that recovery is violation-free at a
// sampled set of crossings under all three power-loss variants, on both
// parity engines.
func TestFUAStreamExplore(t *testing.T) {
	for _, s := range []*Scenario{FUAStream(), FUAStreamZRAID()} {
		census, err := Census(s, 7)
		if err != nil {
			t.Fatalf("%s: census: %v", s.Name, err)
		}
		writes, early, late := 0, 0, 0
		for _, cp := range census {
			switch cp.Name {
			case "raizn.write.plan":
				writes++
			case "zns.cmd.flush":
				if writes <= 4 {
					early++
				} else {
					late++
				}
			}
		}
		if early != 0 {
			t.Errorf("%s: the all-FUA half crossed %d device flushes, want 0", s.Name, early)
		}
		if late == 0 {
			t.Errorf("%s: the interleaved half crossed no device flush", s.Name)
		}
		res, err := Explore(s, Options{Seed: 7, MaxPoints: 40})
		if err != nil {
			t.Fatalf("%s: explore: %v", s.Name, err)
		}
		t.Logf("%s: census=%d explored=%d recovered=%d violations=%d",
			s.Name, len(res.Census), res.Explored, res.Recovered, len(res.Violations))
		for _, v := range res.Violations {
			t.Errorf("%s: violation: %v", s.Name, v)
		}
		if res.Recovered != res.Explored {
			t.Errorf("%s: recovered %d of %d runs", s.Name, res.Recovered, res.Explored)
		}
	}
}

// TestResetThenFUAExplore explores every crossing of the fua-stream tail on
// its own — a zone with unflushed data is reset, then a FUA write of its
// next generation is acknowledged with no flush in between — on both parity
// engines. The sampled exploration above stops short of the scenario's last
// crossings, which is where the ack stands on the reset's generation
// counter alone (lost-durable-data at the last two crossings, flushed
// variant, before that counter was appended FUA).
func TestResetThenFUAExplore(t *testing.T) {
	tail := func(b *Builder) *Scenario {
		return b.Write(0, 35).Reset(0).Write(0, 15).WriteFUA(0, 2).Build()
	}
	z := FUAStreamZRAID()
	zraid := New("reset-then-fua-zraid").Devices(z.NumDev, z.Dev).Volume(z.Vol)
	for _, s := range []*Scenario{tail(New("reset-then-fua")), tail(zraid)} {
		res, err := Explore(s, Options{Seed: 7})
		if err != nil {
			t.Fatalf("%s: explore: %v", s.Name, err)
		}
		t.Logf("%s: census=%d explored=%d recovered=%d violations=%d",
			s.Name, len(res.Census), res.Explored, res.Recovered, len(res.Violations))
		for _, v := range res.Violations {
			t.Errorf("%s: violation: %v", s.Name, v)
		}
	}
}

// TestExploreDeterminism runs the same bounded exploration twice and
// requires bit-identical results: census, counters and violations.
func TestExploreDeterminism(t *testing.T) {
	opt := Options{Seed: 42, MaxPoints: 10}
	a, err := Explore(StripeReset(), opt)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	b, err := Explore(StripeReset(), opt)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("exploration is nondeterministic:\nfirst:  %+v\nsecond: %+v", a, b)
	}
}

// TestBrokenRecoveryCaughtShrunkReplayed plants an unjournaled garbage
// write in every crash snapshot (an intentionally broken recovery) and
// requires that (1) the checker catches it, (2) the shrinker reduces the
// composed schedule to a minimal one that still fails, and (3) the
// printed replay seed reproduces the same violation deterministically.
func TestBrokenRecoveryCaughtShrunkReplayed(t *testing.T) {
	s := Composed()
	opt := Options{Seed: 3, MaxPoints: 4, Variants: []Variant{VarFlushed}, BreakRecovery: true}
	res, err := Explore(s, opt)
	if err != nil {
		t.Fatalf("explore: %v", err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("sabotaged recovery produced no violations; the oracle is blind")
	}
	var target *Violation
	for i := range res.Violations {
		if res.Violations[i].Rule == "unexplained-bytes" {
			target = &res.Violations[i]
			break
		}
	}
	if target == nil {
		t.Fatalf("no unexplained-bytes violation among %d; first: %v",
			len(res.Violations), res.Violations[0])
	}

	repro, err := Shrink(s, *target, opt)
	if err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if repro.KeptOps() >= len(s.Ops) {
		t.Errorf("shrinker removed nothing: kept %d of %d ops", repro.KeptOps(), len(s.Ops))
	}
	t.Logf("shrunk to %d/%d ops: %v", repro.KeptOps(), len(s.Ops), repro.OpsOf(s))
	t.Logf("replay seed: %s", repro.SeedString())

	// The printed seed alone must reproduce the violation — twice, with
	// identical outcomes.
	parsed, err := ParseSeed(repro.SeedString())
	if err != nil {
		t.Fatalf("parse seed: %v", err)
	}
	if !reflect.DeepEqual(parsed, repro) {
		t.Fatalf("seed round-trip mismatch: %+v vs %+v", parsed, repro)
	}
	first, _, err := Replay(parsed)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	second, _, err := Replay(parsed)
	if err != nil {
		t.Fatalf("replay (second): %v", err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("replay is nondeterministic:\nfirst:  %v\nsecond: %v", first, second)
	}
	found := false
	for _, v := range first {
		if v.Rule == target.Rule {
			found = true
		}
	}
	if !found {
		t.Fatalf("replayed run lacks a %q violation: %v", target.Rule, first)
	}
}

// TestSeedStringRoundTrip covers the corners of the replay-seed codec.
func TestSeedStringRoundTrip(t *testing.T) {
	cases := []Repro{
		{Scenario: "stripe-reset", Mask: 0x3ff, Point: "raizn.write.submit", Occ: 2, Variant: VarRand, Seed: 99},
		{Scenario: "composed", Mask: ^uint64(0), Point: "zns.cmd.flush", Occ: 0, Variant: VarFlushed, Seed: -4, Sabotage: true},
	}
	for _, r := range cases {
		got, err := ParseSeed(r.SeedString())
		if err != nil {
			t.Fatalf("%s: %v", r.SeedString(), err)
		}
		if !reflect.DeepEqual(*got, r) {
			t.Fatalf("round trip: %+v != %+v", *got, r)
		}
	}
	for _, bad := range []string{"", "v0:a:1:p#0:all:1", "v1:a:zz:p#0:all:1", "v1:a:1:p:all:1", "v1:a:1:p#0:huh:1"} {
		if _, err := ParseSeed(bad); err == nil {
			t.Errorf("ParseSeed(%q) succeeded, want error", bad)
		}
	}
}
