package raizn

import (
	"cmp"
	"slices"
)

// Mount repairs every logical zone in three steps (recover.go): gather
// reads what the devices hold about the zone into a zoneEvidence, planZone
// decides from that evidence alone, and apply issues the plan's device
// commands. This file is the middle step. It takes no *Volume, issues no
// command and imports neither zns nor vclock (TestPlanFileIsPure), so
// every rule below is testable from hand-written evidence (TestPlanZone).

// ppImage is one partial-parity image of a stripe (§5.1). The logged
// engine's metadata records and the zraid engine's slots take this one
// form.
type ppImage struct {
	stripe  int64
	a, b    int64  // stripe-relative data sectors [a, b) the image covers
	payload []byte // parity of the intra-unit regions intraRegions(a, b), in order
}

// zoneEvidence is everything mount knows about one logical zone. Every
// record in it is of the zone's current generation.
type zoneEvidence struct {
	zone       int
	sectorSize int64
	fills      []int64   // per device: physical fill in sectors, -1 for the missing device
	finished   []bool    // per device: the physical zone was finished
	resetWALs  int       // valid zone-reset WALs
	pp         []ppImage // in scan order: metadata records, then engine slots
	relocs     []record  // relocated data and parity fragments, in scan order
}

// stripeRepair is one repair write: with unit -1, recompute the stripe's
// parity and append it from intra offset from; otherwise rebuild data unit
// unit from intra offset from onward out of parity and the other units.
type stripeRepair struct {
	stripe int64
	unit   int
	from   int64
}

// tailPlan is the partial tail stripe whose buffer apply reloads so
// appends can go on computing parity without device reads (§5.1).
type tailPlan struct {
	stripe, fill int64
	missing      int     // data unit with data on the missing device, or -1
	parity       int64   // sectors of unit missing the parity on media rebuilds
	img          []byte  // parity image of the stripe's partial-parity logs
	reach        []int64 // per intra offset: the data end b of the image img holds there
	recon        int64   // sectors of unit missing the image rebuilds, where parity does not
}

// zonePlan is what planZone decides for one zone.
type zonePlan struct {
	reset          bool     // finish an interrupted reset on every device
	genDelta       uint64   // generation counter increment
	relocs         []record // relocation records that stay live
	empty          bool     // the zone is empty: drop its relocation entries
	wp             int64    // recovered logical write pointer
	full, remapped bool
	repairs        []stripeRepair // in stripe order
	tail           *tailPlan      // nil: no partial tail stripe
}

// planZone derives a logical zone's state from its evidence (§4.3 "zone
// descriptors", §5.1, §5.2): the readable logical prefix of the physical
// fills, the stripe holes parity can close, and where unrecoverable holes
// or debris truncate the zone.
func planZone(lt *layout, ev zoneEvidence) zonePlan {
	onMedia, allFinished := false, true
	for i, f := range ev.fills {
		if f > 0 || ev.finished[i] {
			onMedia = true
		}
		if f >= 0 && !ev.finished[i] {
			allFinished = false
		}
	}
	// A valid reset WAL is a reset the crash interrupted: finish it
	// (§5.2). Each WAL bumps the generation, which makes every record of
	// the old incarnation stale, relocations included; the zone is empty.
	if ev.resetWALs > 0 {
		return zonePlan{reset: onMedia, genDelta: uint64(ev.resetWALs) + 1, empty: true}
	}
	p := zonePlan{relocs: ev.relocs, remapped: len(ev.relocs) > 0}
	su, stripeSec := lt.su, lt.stripeSectors()
	degraded := slices.Contains(ev.fills, -1)
	smax := int64(0)
	for _, f := range ev.fills {
		smax = max(smax, (f+su-1)/su)
	}
	for _, r := range ev.pp {
		smax = max(smax, r.stripe+1)
	}
	// The last stripe walked is the tail stripe, if there is one: present
	// and q are its evidence when the walk ends.
	present := make([]int64, lt.d) // data sectors per unit, -1 on the missing device
	q := int64(-1)                 // parity sectors present, -1 on the missing device
	for s := int64(0); s < smax; s++ {
		for u := range present {
			present[u] = -1
			if f := ev.fills[lt.dataDev(ev.zone, s, u)]; f >= 0 {
				present[u] = clampI64(f-s*su, 0, su)
			}
		}
		q = -1
		if f := ev.fills[lt.parityDev(ev.zone, s)]; f >= 0 {
			q = clampI64(f-s*su, 0, su)
		}
		// Relocated parity counts as parity present; of several records
		// for the stripe the last is the live one.
		pl := int64(-1)
		for _, r := range ev.relocs {
			if r.typ.base() == recRelocParity && lt.stripeOf(r.startLBA) == s {
				pl = int64(len(r.payload)) / ev.sectorSize
			}
		}
		q = max(q, pl)
		g := planStripe(lt, &ev, &p, s, present, q, degraded)
		p.wp += g
		if g < stripeSec {
			break // a short stripe ends the logical prefix
		}
	}
	if !onMedia && p.wp == 0 {
		// §4.3: an empty zone's generation is bumped on mount, making
		// straggler metadata of the old incarnation stale. Partial-parity
		// images are evidence of data too: with the only device that wrote
		// the zone missing, they say how far its units were written
		// (§5.1). Images that recover no sector go stale with the bump,
		// so they cannot come back later.
		p.genDelta, p.empty = 1, true
		return p
	}

	// Debris: a physical fill beyond what the write pointer implies is
	// burned PBAs (data past the prefix, parity of an incomplete stripe —
	// on a finished zone too, where FinishZone wrote prefix parity). Flag
	// the zone so later writes take the relocation path.
	for i, f := range ev.fills {
		if f > expectedPhysFill(lt, ev.zone, i, p.wp) {
			p.remapped = true
		}
	}
	p.full = allFinished || p.wp == lt.zoneSectors()
	if tail := p.wp % stripeSec; !p.full && tail != 0 {
		t := &tailPlan{stripe: p.wp / stripeSec, fill: tail, missing: -1}
		for u, f := range lt.unitFills(tail) {
			if f > 0 && ev.fills[lt.dataDev(ev.zone, t.stripe, u)] < 0 {
				// The unit is rebuilt from parity on media where that
				// reaches, from the logs' image past it; data beyond both
				// is lost with the device (§5.1), and the prefix rule has
				// already capped the write pointer there.
				t.img, t.reach = ppParity(lt, ev.pp, t.stripe, ev.sectorSize)
				_, covered := ppExtent(lt, ev.pp, t.stripe, u, t.reach)
				t.missing, t.parity = u, min(f, parityExtent(lt, &ev, t.stripe, present, q, u))
				t.recon = min(f, covered)
			}
		}
		p.tail = t
	}
	return p
}

// planStripe decides stripe s of the walk from the data present per unit
// and the parity sectors present q: its recovered data fill, and the
// repair it needs (appended to p). A fill short of the stripe ends the
// zone's logical prefix; data or parity past it is debris, which planZone
// flags from the physical fills.
func planStripe(lt *layout, ev *zoneEvidence, p *zonePlan, s int64, present []int64, q int64, degraded bool) (g int64) {
	su, stripeSec := lt.su, lt.stripeSectors()
	shorts, short, unknown := 0, 0, false
	for u, f := range present {
		switch {
		case f < 0:
			unknown = true
		case f < su:
			shorts, short = shorts+1, u
		}
	}
	switch {
	case shorts == 0 && (q < 0 || q == su):
		return stripeSec
	case shorts == 0 && !degraded:
		// Parity hole: data complete, parity torn (§5.2 write hole).
		// Degraded, the unknown unit cannot be assumed full: the prefix
		// rule below counts it only as far as parity rebuilds it.
		p.repairs = append(p.repairs, stripeRepair{stripe: s, unit: -1, from: q})
		return stripeSec
	case q == su && shorts == 1 && !unknown && !ev.finished[lt.dataDev(ev.zone, s, short)]:
		// Full parity: the stripe was complete at the crash. Rebuild its
		// one short unit (§4.3); two erasures truncate below. On a
		// finished device the short unit is a sealed tail under
		// FinishZone's prefix parity, not a hole: the prefix rule below.
		p.repairs = append(p.repairs, stripeRepair{stripe: s, unit: short, from: present[short]})
		return stripeSec
	}

	// The contiguous data prefix. A missing device's unit counts as far as
	// later evidence shows it was written (data in a later unit, the
	// partial-parity logs), capped by what parity can rebuild: the media
	// parity where every survivor holds its offsets (parityExtent) or the
	// logs' coverage of that unit. Counting more would leave unreadable
	// sectors below the write pointer.
	for u, f := range present {
		if f < 0 {
			_, reach := ppParity(lt, ev.pp, s, ev.sectorSize)
			ppEnd, covered := ppExtent(lt, ev.pp, s, u, reach)
			f = clampI64(ppEnd-int64(u)*su, 0, su)
			for _, later := range present[u+1:] {
				if later > 0 {
					f = su
				}
			}
			f = min(f, max(parityExtent(lt, ev, s, present, q, u), covered))
		}
		g += f
		if f < su {
			break
		}
	}
	return g
}

// parityExtent returns the prefix of intra offsets [0, n) over which
// stripe s's parity on media, q sectors of it, rebuilds lost data unit u.
// Parity on media is a complete stripe's, so it holds every data unit: it
// rebuilds offset i only where every surviving unit holds offset i. The
// exception is a finished device's short unit, a sealed tail FinishZone's
// prefix parity never held, which caps nothing.
func parityExtent(lt *layout, ev *zoneEvidence, s int64, present []int64, q int64, u int) int64 {
	n := max(q, 0)
	for u2, f := range present {
		if u2 != u && !ev.finished[lt.dataDev(ev.zone, s, u2)] {
			n = min(n, f)
		}
	}
	return n
}

// ppExtent returns the stripe-relative data fill stripe s's partial-parity
// images imply (-1: none) and the prefix of intra-unit offsets [0,
// covered) over which their parity rebuilds lost data unit u. It reads
// coverage off the image ppParity keeps at each offset, whose data end
// reach holds: an image of [a, b) is the parity of the stripe's first b
// data sectors, so it holds unit u's sector at offset i only when u·su +
// i < b. An image taken before the unit was written rebuilds none of it,
// and an older image's bytes left where a newer payload fell short count
// only as far as that older image reached.
func ppExtent(lt *layout, pp []ppImage, s int64, u int, reach []int64) (end, covered int64) {
	end = -1
	for _, r := range pp {
		if r.stripe == s {
			end = max(end, r.b)
		}
	}
	for covered < lt.su && int64(u)*lt.su+covered < reach[covered] {
		covered++
	}
	return end, covered
}

// ppParity replays stripe s's partial-parity images in offset order (the
// sort is stable: of two images of one offset the later wins) into the
// stripe's parity image over intra-unit offsets [0, su). reach holds, per
// offset, the data end b of the image kept there (0: none): the image is
// the parity of the stripe's first b data sectors, so a unit's sector at
// that offset is in it only below b.
func ppParity(lt *layout, pp []ppImage, s, ss int64) (img []byte, reach []int64) {
	img, reach = make([]byte, lt.su*ss), make([]int64, lt.su)
	var logs []ppImage
	for _, r := range pp {
		if r.stripe == s {
			logs = append(logs, r)
		}
	}
	slices.SortStableFunc(logs, func(x, y ppImage) int { return cmp.Compare(x.a, y.a) })
	for _, r := range logs {
		regions, n := lt.intraRegions(r.a, r.b)
		src := r.payload
		for _, reg := range regions[:n] {
			k := min((reg.b-reg.a)*ss, int64(len(src)))
			copy(img[reg.a*ss:reg.a*ss+k], src[:k])
			for i := reg.a; i < reg.a+k/ss; i++ {
				reach[i] = r.b
			}
			src = src[k:]
		}
	}
	return img, reach
}

// expectedPhysFill returns how many sectors of physical zone z on device
// i a logical fill of wp implies: one unit per complete stripe, and the
// device's piece of the tail stripe (stripePiece, unsealed: the tail
// stripe's parity is not on media yet, its partial parity lives in the
// §5.1 log or a zraid slot).
func expectedPhysFill(lt *layout, z, i int, wp int64) int64 {
	stripeSec := lt.stripeSectors()
	_, tail := lt.stripePiece(z, wp/stripeSec, i, wp%stripeSec, false)
	return wp/stripeSec*lt.su + tail
}

func clampI64(x, lo, hi int64) int64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
