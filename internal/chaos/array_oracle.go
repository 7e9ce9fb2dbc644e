package chaos

import (
	"fmt"
	"math/rand"

	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// ArrayCrash is one array's crash snapshot, taken outside the scenario
// runner — e.g. by a volume-manager test that crashes several hosted
// arrays mid-burst. Clones are the array's devices after the power cut
// (zns.Device.CrashClone), Events the journal stream recorded for this
// array up to the cut.
type ArrayCrash struct {
	// Clk is the fresh clock the clones were created on; the oracle
	// mounts and probes on it.
	Clk *vclock.Clock
	// Clones are the array's post-power-cut devices, in slot order.
	Clones []*zns.Device
	// Events is the array's journal stream (device events carry the slot
	// index as Src).
	Events []obs.Event
	// Dropped is the journal's overwrite count; a non-zero value skips
	// the checks that need a complete stream.
	Dropped uint64
	// Config is the raizn configuration to Mount with. Observability
	// fields may be zero; geometry and parity fields must match the
	// crashed array's.
	Config raizn.Config
}

// ZoneWatermarks carries a caller's workload-model knowledge about one
// logical zone at the moment of the crash, in zone-relative sectors.
type ZoneWatermarks struct {
	// Durable is the prefix known persistent (FUA/flush completed before
	// the cut). Recovery below it is lost durable data. Understating it
	// is safe; overstating it produces false violations.
	Durable int64
	// Submitted is the highest write end ever submitted. Recovery above
	// it is phantom data. Overstating is safe.
	Submitted int64
	// Finished marks a zone the workload finished; its recovered wp
	// reports full capacity regardless of data written.
	Finished bool
}

// CheckArrayCrash validates one array's recovery contracts against its
// crash snapshot with the scenario oracle's rules: mountCrash's clone and
// mount rules, then checkWatermarks on every logical zone the caller has
// watermarks for. It returns the violations (Rule and Detail populated)
// plus the mounted volume for caller follow-up checks, or nil if
// mounting failed. The caller must not be inside Clk.Run.
func CheckArrayCrash(ac ArrayCrash, marks map[int]ZoneWatermarks) ([]Violation, *raizn.Volume) {
	var vios []Violation
	add := func(rule, format string, args ...interface{}) {
		vios = append(vios, Violation{Rule: rule, Detail: fmt.Sprintf(format, args...)})
	}
	_, vol := mountCrash(ac, add)
	if vol == nil {
		return vios, nil
	}
	for z, wm := range marks {
		if z < 0 || z >= vol.NumZones() {
			add("bad-watermark", "zone %d out of range", z)
			continue
		}
		desc := vol.Zone(z)
		checkWatermarks(add, z, desc.WP-int64(z)*vol.ZoneSectors(), desc.State, wm)
	}
	return vios, vol
}

// SnapshotArray crash-clones every device of one array onto a fresh
// clock, applying a deterministic torn-write cut drawn from seed (the
// same convention as the scenario runner's VarRand variant; a nil-rng
// cut — persisted data only — is seed < 0). It may be called from
// inside a running simulation; device locks serialize against in-flight
// IO, so the clones capture a crash-consistent instant.
func SnapshotArray(devs []*zns.Device, seed int64) ([]*zns.Device, *vclock.Clock) {
	clk := vclock.New()
	clones := make([]*zns.Device, len(devs))
	for i, d := range devs {
		rng := rngForSlot(seed, i)
		clones[i] = d.CrashClone(clk, rng, nil)
	}
	return clones, clk
}

// rngForSlot derives the per-device torn-cut RNG from a snapshot seed,
// following the scenario runner's seeding convention. Negative seeds
// select the nil-rng cut: only persisted data survives.
func rngForSlot(seed int64, slot int) *rand.Rand {
	if seed < 0 {
		return nil
	}
	return rand.New(rand.NewSource(seed*1000003 + int64(slot)*257))
}
