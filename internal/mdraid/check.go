package mdraid

import (
	"errors"

	"raizn/internal/blockdev"
	"raizn/internal/parity"
	"raizn/internal/vclock"
)

// This file implements md's check/repair scrub (echo check >
// /sys/block/mdX/md/sync_action). Each stripe's chunks are read, parity
// is XOR-verified against the data, and damage is handled the way md
// handles it:
//
//   - An unrecovered read error on one chunk is corrected by
//     reconstructing the chunk from the survivors and rewriting it in
//     place — the FTL remaps the sector, clearing the latent error. md
//     does this on every read path, so it happens in check mode too.
//   - A parity mismatch with no read error is counted, and in repair
//     mode resolved by recomputing parity FROM the data. md has no
//     per-chunk checksums, so it cannot tell which chunk rotted: if a
//     data chunk went bad, "repair" silently rewrites good parity to
//     match the bad data. This is the baseline RAIZN's stripe-unit
//     checksums improve on.
type CheckResult struct {
	BytesRead      int64
	Skipped        bool // stripe dirty in cache or array degraded
	Mismatch       bool
	ReadErrors     int  // chunks that returned a media error
	RepairedData   bool // read-error chunk reconstructed and rewritten
	RepairedParity bool // parity recomputed from data (repair mode)
	Unrepaired     bool // mismatch left in place, or multiple bad chunks
}

// CheckStats aggregates a full Check pass.
type CheckStats struct {
	StripesChecked     int64
	Skipped            int64
	Mismatches         int64
	ReadErrorsRepaired int64
	ParityRewrites     int64
	Unrepaired         int64
	BytesRead          int64
}

// NumStripes returns how many stripe rows the array has.
func (v *Volume) NumStripes() int64 { return v.perDev }

// CheckStripe verifies one stripe row. It takes the same per-stripe
// handling gate as Resync so a concurrent writer cannot tear the
// snapshot.
func (v *Volume) CheckStripe(s int64, repair bool) (CheckResult, error) {
	var res CheckResult
	if s < 0 || s >= v.perDev {
		return res, ErrOutOfRange
	}
	if v.Degraded() >= 0 {
		// No redundancy to check against.
		res.Skipped = true
		return res, nil
	}

	v.mu.Lock()
	l := v.lineLocked(s)
	for l.handling {
		v.cond.Wait()
	}
	if anySet(l.dirty) {
		// The cache holds newer data than the devices; the pending
		// handler will rewrite the stripe anyway.
		v.mu.Unlock()
		res.Skipped = true
		return res, nil
	}
	l.handling = true
	v.mu.Unlock()

	defer func() {
		v.mu.Lock()
		l.handling = false
		redo := anySet(l.dirty)
		v.cond.Broadcast()
		v.mu.Unlock()
		if redo {
			v.kickHandle(s)
		}
	}()

	ss := int64(v.sectorSize())
	chunkBytes := v.chunk * ss
	// Slot order: data chunks 0..d-1, then parity.
	bufs := make([][]byte, v.n)
	futs := make([]*vclock.Future, v.n)
	for u := 0; u < v.n; u++ {
		slot := v.parityDev(s)
		if u < v.d {
			slot = v.dataDev(s, u)
		}
		d := v.dev(slot)
		if d == nil {
			res.Skipped = true
			return res, nil
		}
		bufs[u] = make([]byte, chunkBytes)
		futs[u] = d.Read(v.devPBA(s, 0), bufs[u])
	}
	var unreadable []int
	for u, f := range futs {
		err := f.Wait()
		res.BytesRead += chunkBytes
		if err == nil {
			continue
		}
		if errors.Is(err, blockdev.ErrReadMedium) {
			unreadable = append(unreadable, u)
			res.ReadErrors++
			continue
		}
		return res, err
	}

	switch {
	case len(unreadable) > 1:
		// RAID-5 cannot reconstruct two missing chunks.
		res.Mismatch = true
		res.Unrepaired = true
		return res, nil
	case len(unreadable) == 1:
		u := unreadable[0]
		res.Mismatch = true
		// Reconstruct from the survivors and rewrite in place; the FTL
		// remap clears the latent sector.
		want := bufs[u]
		for i := range want {
			want[i] = 0
		}
		for u2 := 0; u2 < v.n; u2++ {
			if u2 != u {
				parity.XORInto(want, bufs[u2])
			}
		}
		slot := v.parityDev(s)
		if u < v.d {
			slot = v.dataDev(s, u)
		}
		d := v.dev(slot)
		if d == nil {
			res.Unrepaired = true
			return res, nil
		}
		if err := d.Write(v.devPBA(s, 0), want, 0).Wait(); err != nil {
			return res, err
		}
		if u < v.d {
			res.RepairedData = true
		} else {
			res.RepairedParity = true
		}
		return res, nil
	}

	// XOR verify: parity chunk against the XOR of the data chunks.
	want := make([]byte, chunkBytes)
	for u := 0; u < v.d; u++ {
		parity.XORInto(want, bufs[u])
	}
	if bytesEqual(want, bufs[v.d]) {
		return res, nil
	}
	res.Mismatch = true
	if !repair {
		res.Unrepaired = true
		return res, nil
	}
	// Repair mode: md recomputes parity from data. If the rot was in a
	// data chunk this makes the corruption permanent — md cannot tell.
	pd := v.dev(v.parityDev(s))
	if pd == nil {
		res.Unrepaired = true
		return res, nil
	}
	if err := pd.Write(v.devPBA(s, 0), want, 0).Wait(); err != nil {
		return res, err
	}
	res.RepairedParity = true
	return res, nil
}

// Check runs a full check (repair=false) or repair (repair=true) pass
// over every stripe row, like md's sync_action.
func (v *Volume) Check(repair bool) (CheckStats, error) {
	var stats CheckStats
	for s := int64(0); s < v.perDev; s++ {
		res, err := v.CheckStripe(s, repair)
		if err != nil {
			return stats, err
		}
		if res.Skipped {
			stats.Skipped++
		} else {
			stats.StripesChecked++
		}
		if res.Mismatch {
			stats.Mismatches++
		}
		if res.RepairedData {
			stats.ReadErrorsRepaired++
		}
		if res.RepairedParity && res.ReadErrors > 0 {
			stats.ReadErrorsRepaired++
		} else if res.RepairedParity {
			stats.ParityRewrites++
		}
		if res.Unrepaired {
			stats.Unrepaired++
		}
		stats.BytesRead += res.BytesRead
	}
	return stats, nil
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
