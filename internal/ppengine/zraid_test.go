package ppengine

import (
	"bytes"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// ppDevConfig is a small ZNS device whose first zones serve as the PP
// pool: ZoneCap 128 holds 7 slots at su=16 (stride 17), and the ZRWA
// window covers exactly two slots.
func ppDevConfig() zns.Config {
	cfg := zns.DefaultConfig()
	cfg.NumZones = 4
	cfg.ZoneSize = 160
	cfg.ZoneCap = 128
	cfg.MaxOpenZones = 4
	cfg.MaxActiveZones = 6
	cfg.ZRWASectors = 34
	return cfg
}

func newTestEngine(t *testing.T, c *vclock.Clock, d *zns.Device) *zraidEngine {
	t.Helper()
	eng, err := NewZRAID(ZRAIDConfig{
		Clock:       c,
		NumDevices:  1,
		Device:      func(int) *zns.Device { return d },
		PPZone:      func(i int) int { return i },
		PPZones:     2,
		SectorSize:  d.Config().SectorSize,
		SU:          16,
		ZoneCap:     128,
		ZRWASectors: 34,
		Charge:      func(hdr, pay int64) {},
	})
	if err != nil {
		t.Fatalf("NewZRAID: %v", err)
	}
	return eng.(*zraidEngine)
}

// mkAppend builds an Append whose image is n sectors of the fill byte
// (behind the frame's header sector).
func mkAppend(d *zns.Device, zone int, stripe int64, fill byte, n int) Append {
	ss := d.Config().SectorSize
	frame := make([]byte, (1+n)*ss)
	for i := ss; i < len(frame); i++ {
		frame[i] = fill
	}
	return Append{
		Dev: 0, Zone: zone, Stripe: stripe,
		StartLBA: stripe * 64, EndLBA: stripe*64 + int64(n),
		Gen: 7, Frame: frame,
	}
}

func TestSlotCodecRoundtrip(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, c, d)
		ss := d.Config().SectorSize
		sl := &zrSlot{
			seq: 42,
			rec: Record{
				Zone: 3, Stripe: 9, StartLBA: 576, EndLBA: 581,
				Gen:     11,
				Payload: bytes.Repeat([]byte{0xAB}, 5*ss),
			},
		}
		// An overwrite carries the header and the image only, and decodes
		// on its own.
		short := e.encodeSlotLocked(sl, false)
		if len(short) != 6*ss {
			t.Fatalf("overwrite size %d, want header + 5 payload sectors (%d)", len(short), 6*ss)
		}
		if rec, seq, ok := decodeSlot(short, ss, 16); !ok || seq != 42 || !bytes.Equal(rec.Payload, sl.rec.Payload) {
			t.Fatal("overwrite image does not decode")
		}
		buf := e.encodeSlotLocked(sl, true)
		if int64(len(buf)) != e.stride*int64(ss) {
			t.Fatalf("slot size %d, want %d", len(buf), e.stride*int64(ss))
		}
		rec, seq, ok := decodeSlot(buf, ss, 16)
		if !ok {
			t.Fatal("roundtrip decode failed")
		}
		if seq != 42 || rec.Zone != 3 || rec.Stripe != 9 ||
			rec.StartLBA != 576 || rec.EndLBA != 581 || rec.Gen != 11 {
			t.Fatalf("decoded header mismatch: %+v seq %d", rec, seq)
		}
		if !bytes.Equal(rec.Payload, sl.rec.Payload) {
			t.Fatal("decoded payload mismatch")
		}

		// A flipped payload byte must fail the CRC.
		buf[ss+100] ^= 1
		if _, _, ok := decodeSlot(buf, ss, 16); ok {
			t.Error("corrupted payload decoded successfully")
		}
		buf[ss+100] ^= 1
		// So must a flipped header byte and a wrong magic.
		buf[20] ^= 1
		if _, _, ok := decodeSlot(buf, ss, 16); ok {
			t.Error("corrupted header decoded successfully")
		}
		buf[20] ^= 1
		buf[0] ^= 1
		if _, _, ok := decodeSlot(buf, ss, 16); ok {
			t.Error("wrong magic decoded successfully")
		}
	})
}

// TestPersistOverwriteVolatile checks the ZRAID claim at slot
// granularity: re-persisting the same stripe overwrites its slot in
// place, so the zone's write pointer does not move and the bytes are
// counted volatile, not permanent.
func TestPersistOverwriteVolatile(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, c, d)
		ss := int64(d.Config().SectorSize)

		for fillN := 1; fillN <= 4; fillN++ {
			fut, end, ok := e.Persist(mkAppend(d, 0, 5, byte(fillN), fillN*4))
			if !ok {
				t.Fatalf("Persist %d refused", fillN)
			}
			if err := fut.Wait(); err != nil {
				t.Fatalf("Persist %d: %v", fillN, err)
			}
			// The append writes the whole stride; an overwrite ends where
			// its image does.
			want := d.ZoneStart(0) + e.stride
			if fillN > 1 {
				want = d.ZoneStart(0) + 1 + int64(fillN*4)
			}
			if end != want {
				t.Errorf("Persist %d ended at sector %d, want %d", fillN, end, want)
			}
		}
		if wp := d.Zone(0).WP - d.ZoneStart(0); wp != e.stride {
			t.Errorf("PP zone WP = %d, want one slot (%d)", wp, e.stride)
		}
		hw, _, _, _ := d.Counters()
		if want := (e.stride + 9 + 13 + 17) * ss; hw != want {
			t.Errorf("device took %d bytes, want %d (one full slot, then header + image three times)", hw, want)
		}
		st := e.Stats()
		if want := (9 + 13 + 17) * ss; st.VolatileBytes != want {
			t.Errorf("VolatileBytes = %d, want %d (three in-place overwrites of header + image)", st.VolatileBytes, want)
		}
		if st.PermanentBytes != 0 {
			t.Errorf("PermanentBytes = %d, want 0 (window never slid)", st.PermanentBytes)
		}

		// Scan returns the newest image only.
		recs, err := e.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("Scan returned %d records, want 1", len(recs))
		}
		if recs[0].Stripe != 5 || recs[0].Payload[0] != 4 || len(recs[0].Payload) != 16*int(ss) {
			t.Errorf("Scan kept the wrong image: stripe %d fill %d len %d",
				recs[0].Stripe, recs[0].Payload[0], len(recs[0].Payload))
		}
	})
}

// TestStaleSlotSuperseded pushes a stripe's slot out of the ZRWA window,
// re-persists the stripe, and checks both Scan and the GC see only the
// replacement.
func TestStaleSlotSuperseded(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, c, d)

		persist := func(stripe int64, fill byte) {
			t.Helper()
			fut, _, ok := e.Persist(mkAppend(d, 0, stripe, fill, 8))
			if !ok {
				t.Fatalf("Persist stripe %d refused", stripe)
			}
			if err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		persist(0, 1) // slot at pos 0
		for s := int64(1); s <= 3; s++ {
			persist(s, byte(s)) // wp=68: window [34,68], slot 0 outside
		}
		persist(0, 9) // replacement slot, old one must die

		e.mu.Lock()
		liveFor0 := 0
		for _, pz := range e.devs[0].pools {
			for _, sl := range pz.slots {
				if sl.live && sl.key == (slotKey{zone: 0, stripe: 0}) {
					liveFor0++
				}
			}
		}
		e.mu.Unlock()
		if liveFor0 != 1 {
			t.Errorf("stripe 0 has %d live slots, want 1", liveFor0)
		}

		recs, err := e.Scan()
		if err != nil {
			t.Fatal(err)
		}
		got := map[int64]byte{}
		for _, r := range recs {
			got[r.Stripe] = r.Payload[0]
		}
		if got[0] != 9 {
			t.Errorf("Scan kept stale image for stripe 0: fill %d, want 9", got[0])
		}
		if len(recs) != 4 {
			t.Errorf("Scan returned %d records, want 4", len(recs))
		}
	})
}

// TestKilledSlotUnmappedAcrossGC reproduces a write-path crash: a
// stripe's slot slides out of the window, its re-persist cannot place a
// replacement (pool exhausted -> fallback), and the pool holding the
// dead slot is later GC-reset. The next re-persist of the stripe must
// not treat the stale mapping as an in-place overwrite target — the
// slot's position no longer exists on the device.
func TestKilledSlotUnmappedAcrossGC(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, c, d)

		persist := func(stripe int64, fill byte) bool {
			t.Helper()
			fut, _, ok := e.Persist(mkAppend(d, 0, stripe, fill, 8))
			if ok {
				if err := fut.Wait(); err != nil {
					t.Fatalf("Persist stripe %d: %v", stripe, err)
				}
			}
			return ok
		}

		// Fill pool 0 (stripes 0-6), then pool 1 (stripes 8-14). Stripe
		// 7's placement advances the head but falls back: the GC aborts
		// because everything is live.
		for s := int64(0); s <= 6; s++ {
			if !persist(s, 1) {
				t.Fatalf("Persist stripe %d refused during fill", s)
			}
		}
		refused := 0
		for s := int64(7); s <= 14; s++ {
			if !persist(s, 1) {
				refused++
			}
		}
		if refused != 1 {
			t.Fatalf("fill refused %d persists, want 1 (the head advance)", refused)
		}

		// Stripe 4's slot (pool 0, pos 68) is out of the window
		// ([85,119]). Its re-persist kills the slot and, with both pools
		// packed live, falls back to the metadata log.
		if persist(4, 2) {
			t.Fatal("Persist stripe 4 placed despite an exhausted pool")
		}

		// Close everything and reclaim: pool 0 (all dead) resets.
		for s := int64(0); s <= 14; s++ {
			e.StripeClosed(0, s)
		}
		if err := e.Maintain(); err != nil {
			t.Fatalf("Maintain: %v", err)
		}

		// Re-persisting stripe 4 must place a fresh slot, not revive the
		// mapping into the reset pool.
		if !persist(4, 9) {
			t.Fatal("Persist stripe 4 refused after reclaim")
		}
		recs, err := e.Scan()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if r.Stripe == 4 && r.Payload[0] != 9 {
				t.Errorf("stripe 4 image fill %d, want 9", r.Payload[0])
			}
		}
	})
}

// TestScanReadsSlotCutAtItsImage overwrites a slot whose appending write
// was never flushed with a shorter FUA image, then cuts power keeping only
// what the device persisted: the zone ends inside the slot, right after
// the image, and Scan must still return it.
func TestScanReadsSlotCutAtItsImage(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, c, d)
		for i, a := range []Append{mkAppend(d, 0, 0, 1, 8), mkAppend(d, 0, 1, 2, 12), mkAppend(d, 0, 1, 3, 4)} {
			if i == 2 {
				a.Flags = int(zns.FUA)
			}
			fut, _, ok := e.Persist(a)
			if !ok {
				t.Fatal("Persist refused")
			}
			if err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		d.PowerLoss(nil)
		if wp := d.Zone(0).WP - d.ZoneStart(0); wp != e.stride+5 {
			t.Fatalf("PP zone WP after the cut = %d, want %d (first slot, header and 4 sectors of the second)", wp, e.stride+5)
		}
		recs, err := e.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 {
			t.Fatalf("Scan returned %d records, want 2", len(recs))
		}
		if r := recs[1]; r.Stripe != 1 || len(r.Payload) != 4*d.Config().SectorSize || r.Payload[0] != 3 {
			t.Errorf("Scan kept stripe %d len %d fill %d, want stripe 1's 4-sector image", r.Stripe, len(r.Payload), r.Payload[0])
		}
	})
}

// TestScanDropsTornSlot plants garbage between valid slots and checks
// the scan skips it without losing the neighbors.
func TestScanDropsTornSlot(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, c, d)
		for s := int64(0); s < 2; s++ {
			fut, _, ok := e.Persist(mkAppend(d, 0, s, byte(s+1), 8))
			if !ok {
				t.Fatal("Persist refused")
			}
			if err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		// Garbage the size of one slot appended directly to the zone.
		junk := bytes.Repeat([]byte{0x5A}, int(e.stride)*d.Config().SectorSize)
		if _, fut := d.Append(0, junk, 0); fut.Wait() != nil {
			t.Fatal("junk append failed")
		}
		recs, err := e.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 {
			t.Fatalf("Scan returned %d records, want 2 (junk slot dropped)", len(recs))
		}
	})
}

// TestExhaustionBackpressureAndReclaim fills both PP zones with live
// slots until Persist refuses, then closes the stripes and checks
// Maintain and the ring GC reclaim the pool.
func TestExhaustionBackpressureAndReclaim(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, c, d)

		var placed []int64
		refused := 0
		for s := int64(0); s < 40 && refused < 3; s++ {
			fut, _, ok := e.Persist(mkAppend(d, 0, s, 1, 8))
			if !ok {
				refused++
				continue
			}
			if err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
			placed = append(placed, s)
		}
		if refused == 0 {
			t.Fatal("pool never reported backpressure")
		}
		// Both zones hold 7 slots each; every one is live.
		if len(placed) != 14 {
			t.Errorf("placed %d live slots, want 14", len(placed))
		}
		if st := e.Stats(); st.FallbackTotal == 0 {
			t.Error("FallbackTotal not counted")
		}

		// Closing every stripe makes the pool fully reclaimable.
		for _, s := range placed {
			e.StripeClosed(0, s)
		}
		if err := e.Maintain(); err != nil {
			t.Fatalf("Maintain after close: %v", err)
		}
		before := e.Stats()
		if before.GCRuns == 0 {
			t.Error("Maintain reclaimed nothing")
		}

		// New stripes place again without refusals (six concurrent live
		// stripes fit a two-zone ring); the ring advance migrates the
		// live survivors.
		for s := int64(100); s < 106; s++ {
			fut, _, ok := e.Persist(mkAppend(d, 0, s, 2, 8))
			if !ok {
				t.Fatalf("Persist stripe %d refused after reclaim", s)
			}
			if err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		after := e.Stats()
		if after.FallbackTotal != before.FallbackTotal {
			t.Errorf("fallbacks grew after reclaim: %d -> %d", before.FallbackTotal, after.FallbackTotal)
		}
		if after.GCRuns <= before.GCRuns {
			t.Errorf("ring advance ran no GC: runs %d -> %d", before.GCRuns, after.GCRuns)
		}
		if after.GCMigrated == 0 {
			t.Error("GC migrated no live slots")
		}

		// The migrated images are intact.
		recs, err := e.Scan()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		for _, r := range recs {
			seen[r.Stripe] = true
		}
		for s := int64(100); s < 106; s++ {
			if !seen[s] {
				t.Errorf("stripe %d image lost across GC", s)
			}
		}
	})
}

// TestFormatClearsPool persists slots, formats, and expects empty zones
// and zeroed mirrors.
func TestFormatClearsPool(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, c, d)
		for s := int64(0); s < 5; s++ {
			fut, _, ok := e.Persist(mkAppend(d, 0, s, 3, 8))
			if !ok {
				t.Fatal("Persist refused")
			}
			if err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Format(); err != nil {
			t.Fatalf("Format: %v", err)
		}
		for p := 0; p < 2; p++ {
			if st := d.Zone(p).State; st != zns.ZoneEmpty {
				t.Errorf("PP zone %d state %v after Format, want empty", p, st)
			}
		}
		recs, err := e.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Errorf("Scan found %d records after Format", len(recs))
		}
		fut, _, ok := e.Persist(mkAppend(d, 0, 77, 4, 8))
		if !ok {
			t.Fatal("Persist refused after Format")
		}
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	})
}
