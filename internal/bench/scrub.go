package bench

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"raizn/internal/fio"
	"raizn/internal/scrub"
	"raizn/internal/vclock"
)

func runScrub(w io.Writer, quick bool) error {
	if err := runScrubInterference(w, quick); err != nil {
		return err
	}
	return runScrubCoverage(w, quick)
}

// runScrubInterference measures foreground random-read throughput on a
// primed RAIZN volume with the background scrubber off, then on at
// several rate limits: the token bucket should bound the interference,
// converging to the scrub-off baseline as the limit tightens.
func runScrubInterference(w io.Writer, quick bool) error {
	sc := scaleFor(quick)
	fmt.Fprintf(w, "\n-- foreground 64K randread vs background scrub rate (raizn) --\n")

	type mode struct {
		label string
		on    bool
		rate  int64 // 0 = unthrottled
	}
	modes := []mode{
		{"off", false, 0},
		{"8 MiB/s", true, 8 << 20},
		{"32 MiB/s", true, 32 << 20},
		{"128 MiB/s", true, 128 << 20},
		{"unlimited", true, 0},
	}

	t := newTable(w, "scrub rate", "fg MiB/s", "scrub MiB scanned")
	for _, m := range modes {
		clk := vclock.New()
		var fg float64
		var scanned int64
		clk.Run(func() {
			v, _, err := newRaizn(clk, sc, false, 16)
			if err != nil {
				panic(err)
			}
			tgt := fio.RaiznTarget{V: v}
			fio.Run(clk, tgt, []fio.Job{{Pattern: fio.SeqWrite, BlockSectors: 32, QueueDepth: 16,
				Size: tgt.NumSectors()}}, fio.Options{})
			if err := v.Flush(); err != nil {
				panic(err)
			}

			var s *scrub.Scrubber
			if m.on {
				s = scrub.New(scrub.Config{
					Clock: clk, Volume: v,
					Repair: true, RateLimit: m.rate,
					PassInterval: time.Millisecond,
				})
				s.RegisterMetrics(runRegistry)
				s.Start()
			}
			// Duration-bounded: the window must be long relative to
			// per-stripe scrub latency or the scrubber never gets going.
			dur := time.Second
			if quick {
				dur = 250 * time.Millisecond
			}
			fg = fio.Run(clk, tgt, []fio.Job{{Pattern: fio.RandRead, BlockSectors: 16, QueueDepth: 64,
				Duration: dur}}, fio.Options{}).Throughput
			if s != nil {
				s.Stop()
				scanned = s.BytesScanned()
			}
		})
		t.row(m.label, f1(fg), f1(float64(scanned)/(1<<20)))
	}
	fmt.Fprintln(w, "\nexpect: fg throughput degrades monotonically with scrub rate and is bounded at each limit.")
	return nil
}

// runScrubCoverage injects the same seeded set of single-sector rot into
// a RAIZN array and an mdraid array, runs one repair scrub on each, and
// reports what each stack detected, repaired, and what a full readback
// finds afterwards. RAIZN's stripe-unit checksums attribute the rot and
// repair it; mdraid detects the parity mismatch but can only rewrite
// parity to match the (rotted) data.
func runScrubCoverage(w io.Writer, quick bool) error {
	// Coverage is scale-independent; run it at the small scale.
	sc := scaleFor(true)
	k := 12
	if quick {
		k = 6
	}
	const seed = 42

	fmt.Fprintf(w, "\n-- rot coverage: %d seeded single-sector corruptions, one repair scrub --\n", k)
	t := newTable(w, "stack", "injected", "detected", "repaired", "bad sectors after")

	// RAIZN.
	{
		clk := vclock.New()
		var detected, repaired, bad int64
		clk.Run(func() {
			v, devs, err := newRaizn(clk, sc, false, 16)
			if err != nil {
				panic(err)
			}
			fillPattern(func(lba int64, d []byte) error { return v.Write(lba, d, 0) },
				v.SectorSize(), v.NumSectors())
			if err := v.Flush(); err != nil {
				panic(err)
			}

			rng := rand.New(rand.NewSource(seed))
			n := len(devs)
			su := int64(16)
			seen := map[[2]int64]bool{}
			for i := 0; i < k; i++ {
				var z, s int64
				for {
					z = int64(rng.Intn(v.NumZones()))
					s = rng.Int63n(v.StripesPerZone())
					if !seen[[2]int64{z, s}] {
						seen[[2]int64{z, s}] = true
						break
					}
				}
				u := rng.Intn(n - 1)
				intra := rng.Int63n(su)
				dev, sector := v.UnitLocation(int(z), s, u)
				if err := devs[dev].CorruptSector(sector + intra); err != nil {
					panic(err)
				}
			}

			sb := scrub.New(scrub.Config{Clock: clk, Volume: v, Repair: true})
			sb.RegisterMetrics(runRegistry)
			stats, err := sb.RunPass()
			if err != nil {
				panic(err)
			}
			detected = stats.Mismatches
			repaired = stats.RepairedData + stats.RepairedParity
			bad = countBadSectors(v.Read, v.SectorSize(), v.NumSectors())
		})
		t.row("raizn", fmt.Sprint(k), fmt.Sprint(detected), fmt.Sprint(repaired), fmt.Sprint(bad))
	}

	// mdraid.
	{
		clk := vclock.New()
		var detected, repaired, bad int64
		clk.Run(func() {
			v, devs, err := newMdraid(clk, sc, false, 16)
			if err != nil {
				panic(err)
			}
			fillPattern(func(lba int64, d []byte) error { return v.Write(lba, d, 0) },
				v.SectorSize(), v.NumSectors())
			if err := v.Flush(); err != nil {
				panic(err)
			}

			rng := rand.New(rand.NewSource(seed))
			n := len(devs)
			su := int64(16)
			seen := map[int64]bool{}
			for i := 0; i < k; i++ {
				var s int64
				for {
					s = rng.Int63n(v.NumStripes())
					if !seen[s] {
						seen[s] = true
						break
					}
				}
				u := rng.Intn(n - 1)
				intra := rng.Int63n(su)
				pd := n - 1 - int(s%int64(n))
				dev := (pd + 1 + u) % n
				if err := devs[dev].CorruptSector(s*su + intra); err != nil {
					panic(err)
				}
			}

			stats, err := v.Check(true)
			if err != nil {
				panic(err)
			}
			detected = stats.Mismatches
			// Parity rewrites do not restore rotted data.
			repaired = stats.ReadErrorsRepaired
			bad = countBadSectors(v.Read, v.SectorSize(), v.NumSectors())
		})
		t.row("mdraid", fmt.Sprint(k), fmt.Sprint(detected), fmt.Sprint(repaired), fmt.Sprint(bad))
	}

	fmt.Fprintln(w, "\nexpect: raizn repairs every injected corruption (0 bad sectors after);")
	fmt.Fprintln(w, "mdraid detects the mismatches but cannot attribute them, leaving the data bad.")
	return nil
}

// scrubPattern fills buf with the deterministic per-sector pattern for
// sectors starting at lba.
func scrubPattern(lba int64, ss int, buf []byte) {
	n := len(buf) / ss
	for i := 0; i < n; i++ {
		cur := lba + int64(i)
		for j := 0; j < ss; j++ {
			buf[i*ss+j] = byte(cur) ^ byte(j) ^ byte(cur>>8)
		}
	}
}

// fillPattern writes the pattern over the whole volume, one 64-sector
// chunk at a time (a full stripe at the 16-sector stripe unit).
func fillPattern(write func(lba int64, data []byte) error, ss int, numSectors int64) {
	const chunk = 64
	buf := make([]byte, chunk*ss)
	for lba := int64(0); lba < numSectors; lba += chunk {
		n := int64(chunk)
		if lba+n > numSectors {
			n = numSectors - lba
		}
		scrubPattern(lba, ss, buf[:n*int64(ss)])
		if err := write(lba, buf[:n*int64(ss)]); err != nil {
			panic(err)
		}
	}
}

// countBadSectors reads the whole volume back and counts sectors that no
// longer match the pattern.
func countBadSectors(read func(lba int64, buf []byte) error, ss int, numSectors int64) int64 {
	const chunk = 64
	buf := make([]byte, chunk*ss)
	want := make([]byte, chunk*ss)
	var bad int64
	for lba := int64(0); lba < numSectors; lba += chunk {
		n := int64(chunk)
		if lba+n > numSectors {
			n = numSectors - lba
		}
		if err := read(lba, buf[:n*int64(ss)]); err != nil {
			panic(err)
		}
		scrubPattern(lba, ss, want[:n*int64(ss)])
		for i := int64(0); i < n; i++ {
			if !bytes.Equal(buf[i*int64(ss):(i+1)*int64(ss)], want[i*int64(ss):(i+1)*int64(ss)]) {
				bad++
			}
		}
	}
	return bad
}
