package raizn

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// composedGolden holds the digests TestWritePathDifferentialComposedChaos
// compares against. They were recorded while the volume still had three
// write paths (per-sub-IO, coalesced, ring-staged) and the schedule produced
// the same snapshots on all of them; the one path left must keep producing
// them.
const composedGolden = "testdata/composed_chaos.golden"

// TestWritePathDifferentialComposedChaos drives the write path through one
// composed chaos schedule — racing per-zone writers, silent rot plus a
// repairing scrub, a crash with fixed per-device cuts, a mid-life device
// failure, degraded writes over the crash debris, metadata GC and a zone
// reset+rewrite — and compares the logical outcome at both checkpoints
// (post-crash recovery and final state) with the golden digests.
func TestWritePathDifferentialComposedChaos(t *testing.T) {
	var postCrash, final volSnapshot
	var degradedReads int64
	c := vclock.New()
	c.Run(func() {
		devs := newTestDevices(c, 5)
		cfg := DefaultConfig()
		v, err := Create(c, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}

		// Phase 1: concurrent per-zone writers race on the devices.
		runDiffWorkload(t, c, v, false, false)
		if err := v.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}

		// Phase 2: silent rot in zone 0 stripe 0, repaired by a scrub.
		if err := devs[1].CorruptSector(5); err != nil {
			t.Fatalf("corrupt: %v", err)
		}
		res, err := v.ScrubStripe(0, 0, true)
		if err != nil {
			t.Fatalf("ScrubStripe: %v", err)
		}
		if !res.Mismatch {
			t.Error("scrub missed the injected rot")
		}

		// Phase 3: power cut asking for two holes in zone 1 (devices 1
		// and 2) and one in zone 2 (device 3). A cut never reaches below
		// a device's flushed prefix, so after Phase 1's flush the devices
		// keep those sectors and the mount replays the scrub's repair.
		for di, d := range devs {
			m := map[int]int64{}
			for z := 0; z < d.Config().NumZones; z++ {
				m[z] = d.Zone(z).WP - d.ZoneStart(z)
			}
			if (di == 1 || di == 2) && m[1] > 24 {
				m[1] = 24
			}
			if di == 3 && m[2] > 40 {
				m[2] = 40
			}
			d.PowerLossAt(m)
		}
		v2, err := Mount(c, devs, cfg)
		if err != nil {
			t.Fatalf("Mount after crash: %v", err)
		}
		postCrash = snapshotVolume(t, v2)

		// Phase 4: device failure, then degraded writes over the debris
		// (burn-split relocations on a degraded array).
		if err := v2.FailDevice(2); err != nil {
			t.Fatalf("FailDevice: %v", err)
		}
		zs := v2.ZoneSectors()
		for z := 0; z < v2.NumZones(); z++ {
			zd := v2.Zone(z)
			if zd.State == zns.ZoneFull {
				continue
			}
			rel := zd.WP - int64(z)*zs
			n := min(int64(24), zs-rel)
			if n <= 0 {
				continue
			}
			mustWriteV(t, v2, zd.WP, int(n), 0)
		}

		// Phase 5: metadata GC, then reset + rewrite + flush of zone 1.
		if err := v2.Maintain(); err != nil {
			t.Fatalf("Maintain: %v", err)
		}
		if err := v2.ResetZone(1); err != nil {
			t.Fatalf("ResetZone: %v", err)
		}
		mustWriteV(t, v2, zs, 40, 0)
		if err := v2.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		final = snapshotVolume(t, v2)
		degradedReads = v2.Stats().DegradedReads
	})
	if t.Failed() {
		return
	}
	if degradedReads == 0 {
		t.Error("composed schedule took no reconstructed reads")
	}
	if final.relocs == 0 {
		t.Error("composed schedule produced no relocations; burn-split path untested")
	}

	got := append(postCrash.digestLines("post-crash"), final.digestLines("final")...)
	want := readGolden(t, composedGolden)
	if len(want) != len(got) {
		t.Errorf("%s has %d digest lines, the run produced %d", composedGolden, len(want), len(got))
	}
	for i := range min(len(want), len(got)) {
		if got[i] != want[i] {
			t.Errorf("snapshot differs from %s:\n got  %s\n want %s", composedGolden, got[i], want[i])
		}
	}
	if t.Failed() {
		t.Logf("digests of this run:\n%s", strings.Join(got, "\n"))
	}
}

// digestLines renders a snapshot as golden lines: per zone, its descriptor,
// persistence bitmap and the SHA-256 of its read-back bytes; then the
// relocation count.
func (s volSnapshot) digestLines(what string) []string {
	var out []string
	for z, zd := range s.zones {
		sum := sha256.Sum256(s.data[z])
		out = append(out, fmt.Sprintf("%s zone=%d state=%d wp=%d persisted=%d remapped=%t bitmap=%x data=%s",
			what, zd.Index, int(zd.State), zd.WP, zd.PersistedWP, zd.Remapped, s.bitmaps[z], hex.EncodeToString(sum[:])))
	}
	return append(out, fmt.Sprintf("%s relocs=%d", what, s.relocs))
}

// readGolden returns the non-comment, non-blank lines of a golden file.
func readGolden(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden file: %v", err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("golden file: %v", err)
	}
	return lines
}
