package raizn

import (
	"fmt"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"testing"
)

// planLayout is a five-device array of 4-sector stripe units and 16-sector
// physical zones: a logical zone is four 16-sector stripes. In zone 0,
// stripe 0 keeps data unit u on device u and parity on device 4; stripe 1
// keeps parity on device 3 and data units 0..3 on devices 4, 0, 1, 2.
func planLayout() *layout {
	return &layout{n: 5, d: 4, su: 4, physZoneSize: 20, physZoneCap: 16, numZones: 2}
}

// planEvidence is zone 0's evidence for the given per-device fills (-1:
// the missing device), one byte per sector, nothing finished and no
// records.
func planEvidence(fills ...int64) zoneEvidence {
	return zoneEvidence{sectorSize: 1, fills: fills, finished: make([]bool, len(fills))}
}

// TestPlanZone decides hand-written evidence, one case per recovery rule.
func TestPlanZone(t *testing.T) {
	finished := func(ev zoneEvidence) zoneEvidence {
		for i := range ev.finished {
			ev.finished[i] = true
		}
		return ev
	}
	withWALs := func(ev zoneEvidence, n int, relocs ...record) zoneEvidence {
		ev.resetWALs, ev.relocs = n, relocs
		return ev
	}
	withRelocs := func(ev zoneEvidence, relocs ...record) zoneEvidence {
		ev.relocs = relocs
		return ev
	}
	withPP := func(ev zoneEvidence, pp ...ppImage) zoneEvidence {
		ev.pp = pp
		return ev
	}
	dataReloc := record{typ: recRelocData, startLBA: 4, endLBA: 6, payload: make([]byte, 2)}
	parityReloc := func(sectors int) record {
		return record{typ: recRelocParity, startLBA: 0, endLBA: 4, payload: make([]byte, sectors)}
	}

	cases := []struct {
		name string
		ev   zoneEvidence
		want zonePlan
	}{{
		name: "empty zone: generation bumped, live relocations flagged and dropped",
		ev:   withRelocs(planEvidence(0, 0, 0, 0, 0), dataReloc),
		want: zonePlan{genDelta: 1, empty: true, relocs: []record{dataReloc}, remapped: true},
	}, {
		name: "full zone",
		ev:   planEvidence(16, 16, 16, 16, 16),
		want: zonePlan{wp: 64, full: true},
	}, {
		name: "tail in a later stripe",
		ev:   planEvidence(4, 4, 4, 4, 6),
		want: zonePlan{wp: 18, tail: &tailPlan{stripe: 1, fill: 2, missing: -1}},
	}, {
		name: "healthy parity hole: parity rewritten from q",
		ev:   planEvidence(4, 4, 4, 4, 2),
		want: zonePlan{wp: 16, repairs: []stripeRepair{{stripe: 0, unit: -1, from: 2, to: 4}}},
	}, {
		name: "one short unit under full parity: unit rebuilt from its fill",
		ev:   planEvidence(4, 4, 1, 4, 4),
		want: zonePlan{wp: 16, repairs: []stripeRepair{{stripe: 0, unit: 2, from: 1, to: 4}}},
	}, {
		// Full parity rebuilds unit 1 only where unit 2 holds the offset,
		// and unit 2 holds less than unit 1 already does.
		name: "two erasures truncate at the first",
		ev:   planEvidence(4, 2, 1, 4, 4),
		want: zonePlan{wp: 6, remapped: true, tail: &tailPlan{stripe: 0, fill: 6, missing: -1}},
	}, {
		// TestMountOutcomesGolden's "k=1 seeded" zone 1, stripe 2 (units
		// 16 0 6 9 of 16 sectors, parity torn at 7): the whole mount
		// stopped at unit 1 while a mount without unit 1's device
		// rebuilt 6 sectors of it. The complete stripe's parity rebuilds
		// unit 1 at offset 1, where every other unit holds its sector,
		// and that sector is written back.
		name: "a torn unit beside parity on media counts as far as that parity rebuilds it",
		ev:   planEvidence(4, 1, 2, 4, 3),
		want: zonePlan{wp: 6, remapped: true, repairs: []stripeRepair{{stripe: 0, unit: 1, from: 1, to: 2}},
			tail: &tailPlan{stripe: 0, fill: 6, missing: -1}},
	}, {
		// The image of [4,7) is the parity of units 0 and 1 at offsets
		// 0–2: unit 1 is that image XOR unit 0 there.
		name: "a torn unit counts as far as an image that holds it rebuilds it",
		ev:   withPP(planEvidence(4, 1, 0, 0, 0), ppImage{stripe: 0, a: 4, b: 7, payload: []byte{5, 6, 7}}),
		want: zonePlan{wp: 7, repairs: []stripeRepair{{stripe: 0, unit: 1, from: 1, to: 3, img: []byte{5, 6, 7, 0}}},
			tail: &tailPlan{stripe: 0, fill: 7, missing: -1}},
	}, {
		// The image of [0,9) also holds unit 1 (and unit 2 at offset 0),
		// which unit 0 cannot be told apart from: it rebuilds none of it.
		name: "an image that holds a later unit too rebuilds nothing of a torn unit",
		ev:   withPP(planEvidence(1, 4, 1, 0, 0), ppImage{stripe: 0, a: 0, b: 9, payload: []byte{1, 2, 3, 4}}),
		want: zonePlan{wp: 1, remapped: true, tail: &tailPlan{stripe: 0, fill: 1, missing: -1}},
	}, {
		name: "debris past the prefix",
		ev:   planEvidence(4, 2, 0, 3, 0),
		want: zonePlan{wp: 6, remapped: true, tail: &tailPlan{stripe: 0, fill: 6, missing: -1}},
	}, {
		name: "prefix parity on a finished zone",
		ev:   finished(planEvidence(4, 2, 0, 0, 2)),
		want: zonePlan{wp: 6, full: true, remapped: true},
	}, {
		name: "one short unit under sealed prefix parity on a finished zone: a tail, not a hole",
		ev:   finished(planEvidence(4, 4, 4, 3, 4)),
		want: zonePlan{wp: 15, full: true, remapped: true},
	}, {
		name: "pending reset WAL over data: reset, one bump per WAL and one for the empty zone",
		ev:   withWALs(planEvidence(4, 4, 0, 0, 4), 2),
		want: zonePlan{reset: true, genDelta: 3, empty: true},
	}, {
		name: "pending reset WAL without data: no reset",
		ev:   withWALs(planEvidence(0, 0, 0, 0, 0), 1),
		want: zonePlan{genDelta: 2, empty: true},
	}, {
		name: "relocation made stale by a reset WAL",
		ev:   withWALs(planEvidence(4, 0, 0, 0, 0), 1, dataReloc, parityReloc(4)),
		want: zonePlan{reset: true, genDelta: 2, empty: true},
	}, {
		name: "relocated parity counts as parity present, the last record of a stripe wins",
		ev:   withRelocs(planEvidence(4, 4, 4, 4, 2), parityReloc(1), parityReloc(4)),
		want: zonePlan{wp: 16, relocs: []record{parityReloc(1), parityReloc(4)}, remapped: true},
	}, {
		name: "parity on the missing device",
		ev:   planEvidence(4, 4, 4, 4, -1),
		want: zonePlan{wp: 16},
	}, {
		name: "degraded parity hole: not rewritten, the missing unit counts as far as parity rebuilds it",
		ev:   planEvidence(4, 4, 4, -1, 2),
		want: zonePlan{wp: 12, remapped: true, tail: &tailPlan{stripe: 0, fill: 12, missing: -1}},
	}, {
		// Full parity holds unit 2's torn offsets 1–3 too: it rebuilds
		// unit 1 at offset 0 only, where unit 2 holds its sector.
		name: "missing unit beside a short unit under full parity",
		ev:   planEvidence(4, -1, 1, 4, 4),
		want: zonePlan{wp: 5, remapped: true, tail: &tailPlan{stripe: 0, fill: 5, missing: 1, parity: 1, img: make([]byte, 4), reach: make([]int64, 4)}},
	}, {
		// TestMountOutcomesGolden's "k=0 seeded -dev0" zone 0 (fills - 10
		// 32 43 57 of 16-sector units): stripe 0's parity is on media and
		// unit 1 is torn at offset 10. Unit 0 was counted whole to WP 26
		// and rebuilt from its (empty) image; parity rebuilds it to
		// offset 10, and the tail takes it from there.
		name: "missing unit under full parity beside a torn survivor: parity rebuilds the survivors' common prefix",
		ev:   planEvidence(-1, 2, 8, 11, 14),
		want: zonePlan{wp: 2, remapped: true, tail: &tailPlan{stripe: 0, fill: 2, missing: 0, parity: 2, img: make([]byte, 4), reach: make([]int64, 4)}},
	}, {
		// FinishZone's prefix parity holds each unit only as far as it was
		// written: the finished survivors' short units cap nothing.
		name: "missing unit under a finished zone's prefix parity",
		ev:   finished(planEvidence(-1, 2, 0, 0, 4)),
		want: zonePlan{wp: 6, full: true, remapped: true},
	}, {
		// DESIGN.md "Chaos harness", Findings (1): known-full peers do
		// not make the missing unit readable past the parity prefix.
		name: "missing unit capped by the media parity prefix",
		ev:   planEvidence(4, -1, 4, 4, 1),
		want: zonePlan{wp: 5, remapped: true, tail: &tailPlan{stripe: 0, fill: 5, missing: 1, parity: 1, img: make([]byte, 4), reach: make([]int64, 4)}},
	}, {
		// The image of [0,2) was taken before unit 1 was written: it holds
		// none of unit 1, so unit 1 counts nothing and unit 2's data is
		// debris.
		name: "missing unit capped by partial-parity coverage",
		ev:   withPP(planEvidence(4, -1, 2, 0, 0), ppImage{stripe: 0, a: 0, b: 2, payload: []byte{1, 2}}),
		want: zonePlan{wp: 4, remapped: true, tail: &tailPlan{stripe: 0, fill: 4, missing: -1}},
	}, {
		// A completing write's units 0 and 2 reached media and its parity
		// did not; the stripe's only image, of [0,2), predates unit 1.
		// Counting unit 1 up to the image's region read back wrong bytes.
		name: "partial-parity image taken before the missing unit was written",
		ev:   withPP(planEvidence(-1, 8, 4, 4, 8), ppImage{stripe: 1, a: 0, b: 2, payload: []byte{1, 2}}),
		want: zonePlan{wp: 20, remapped: true, tail: &tailPlan{stripe: 1, fill: 4, missing: -1}},
	}, {
		// The torn parity on media is a complete stripe's, and unit 3
		// holds nothing of it: only the image rebuilds unit 1.
		name: "partial-parity coverage shorter than the tail unit's fill",
		ev:   withPP(planEvidence(4, -1, 2, 0, 3), ppImage{stripe: 0, a: 4, b: 5, payload: []byte{9}}),
		want: zonePlan{wp: 5, remapped: true, tail: &tailPlan{stripe: 0, fill: 5, missing: 1, img: []byte{9, 0, 0, 0}, reach: []int64{5, 0, 0, 0}, recon: 1}},
	}, {
		name: "partial-parity payload shorter than its region, images replayed in offset order",
		ev: withPP(planEvidence(4, -1, 0, 0, 0),
			ppImage{stripe: 0, a: 4, b: 7, payload: []byte{5, 6}},
			ppImage{stripe: 0, a: 0, b: 4, payload: []byte{1, 2, 3, 4}},
			ppImage{stripe: 1, a: 0, b: 2, payload: []byte{7, 7}}),
		// Offset 2 keeps the older image's byte, taken before unit 1's
		// sector there (stripe sector 6 ≥ 4) was written: unit 1 counts to
		// offset 2 only.
		want: zonePlan{wp: 6, tail: &tailPlan{stripe: 0, fill: 6, missing: 1, img: []byte{5, 6, 3, 4}, reach: []int64{7, 7, 4, 4}, recon: 2}},
	}, {
		name: "partial-parity images alone: the missing device wrote the zone's only data",
		ev:   withPP(planEvidence(-1, 0, 0, 0, 0), ppImage{stripe: 0, a: 0, b: 2, payload: []byte{1, 2}}, ppImage{stripe: 0, a: 2, b: 3, payload: []byte{3}}),
		want: zonePlan{wp: 3, tail: &tailPlan{stripe: 0, fill: 3, missing: 0, img: []byte{1, 2, 3, 0}, reach: []int64{2, 2, 3, 0}, recon: 3}},
	}, {
		name: "partial-parity images bound the stripe walk past the survivors' data",
		ev:   withPP(planEvidence(4, 4, 4, 4, -1), ppImage{stripe: 1, a: 0, b: 2, payload: []byte{7, 7}}),
		want: zonePlan{wp: 18, tail: &tailPlan{stripe: 1, fill: 2, missing: 0, img: []byte{7, 7, 0, 0}, reach: []int64{2, 2, 0, 0}, recon: 2}},
	}, {
		name: "a lone delta image recovers no sector: the empty plan",
		ev:   withPP(planEvidence(-1, 0, 0, 0, 0), ppImage{stripe: 0, a: 2, b: 3, payload: []byte{9}}),
		want: zonePlan{genDelta: 1, empty: true},
	}}
	lt := planLayout()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := planZone(lt, c.ev); !reflect.DeepEqual(got, c.want) {
				t.Errorf("plan\n got  %s\n want %s", planString(got), planString(c.want))
			}
		})
	}
}

func planString(p zonePlan) string {
	s := fmt.Sprintf("%+v", p)
	if p.tail != nil {
		s += fmt.Sprintf(" tail=%+v", *p.tail)
	}
	return s
}

// TestPlanFileIsPure keeps plan.go free of devices and time: it may not
// import the device model or the virtual clock, nor name the volume.
func TestPlanFileIsPure(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "plan.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		switch p, _ := strconv.Unquote(imp.Path.Value); p {
		case "raizn/internal/zns", "raizn/internal/vclock":
			t.Errorf("plan.go imports %s", p)
		}
	}
	for _, id := range f.Unresolved {
		if id.Name == "Volume" {
			t.Errorf("%s: plan.go names Volume", fset.Position(id.Pos()))
		}
	}
}
