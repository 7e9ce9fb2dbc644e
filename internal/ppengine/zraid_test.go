package ppengine

import (
	"bytes"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// ppDevConfig is a small ZNS device whose first zone serves as the PP
// zone: the ZRWA window covers exactly two slots at su=16 (stride 17), so
// the slot table is two wide.
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

func newTestEngine(t *testing.T, d *zns.Device) *SlotTable {
	t.Helper()
	e, err := NewSlotTable(SlotConfig{
		NumDevices:  1,
		Device:      func(int) *zns.Device { return d },
		PPZone:      0,
		SectorSize:  d.Config().SectorSize,
		SU:          16,
		ZoneCap:     128,
		ZRWASectors: 34,
	})
	if err != nil {
		t.Fatalf("NewSlotTable: %v", err)
	}
	return e
}

// persist persists a and fails the test if the table had no slot for it.
func persist(t *testing.T, e *SlotTable, a Append) (fut *vclock.Future, end int64) {
	t.Helper()
	fut, pba, n, noSlot := e.Persist(a, true)
	if noSlot {
		t.Fatalf("stripe %d found no slot", a.Stripe)
	}
	return fut, pba + n
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
		e := newTestEngine(t, d)
		ss := d.Config().SectorSize
		a := Append{
			Zone: 3, Stripe: 9, StartLBA: 576, EndLBA: 581, Gen: 11,
			Frame: append(make([]byte, ss), bytes.Repeat([]byte{0xAB}, 5*ss)...),
		}
		image := a.Frame[ss:]
		// An overwrite carries the header and the image only, and decodes
		// on its own.
		e.encodeSlotLocked(a, 42)
		if rec, seq, ok := decodeSlot(a.Frame, ss, 16); !ok || seq != 42 || !bytes.Equal(rec.Payload, image) {
			t.Fatal("overwrite image does not decode")
		}
		// A fresh slot is the frame and then zeroes from the table's pad,
		// up to the stride.
		buf := append(bytes.Clone(a.Frame), e.pad[:e.stride*int64(ss)-int64(len(a.Frame))]...)
		rec, seq, ok := decodeSlot(buf, ss, 16)
		if !ok {
			t.Fatal("roundtrip decode failed")
		}
		if seq != 42 || rec.Zone != 3 || rec.Stripe != 9 ||
			rec.StartLBA != 576 || rec.EndLBA != 581 || rec.Gen != 11 {
			t.Fatalf("decoded header mismatch: %+v seq %d", rec, seq)
		}
		if !bytes.Equal(rec.Payload, image) {
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
		e := newTestEngine(t, d)
		ss := int64(d.Config().SectorSize)

		for fillN := 1; fillN <= 4; fillN++ {
			fut, end := persist(t, e, mkAppend(d, 0, 5, byte(fillN), fillN*4))
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
			t.Errorf("PermanentBytes = %d, want 0 (nothing logged)", st.PermanentBytes)
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

// persistWait persists a stripe image of n sectors of fill and waits for
// it.
func persistWait(t *testing.T, e *SlotTable, d *zns.Device, stripe int64, fill byte, n int) {
	t.Helper()
	fut, _ := persist(t, e, mkAppend(d, 0, stripe, fill, n))
	if err := fut.Wait(); err != nil {
		t.Fatalf("Persist stripe %d: %v", stripe, err)
	}
}

// TestStaleSlotSuperseded leaves a dead slot holding an older image of a
// stripe on the device — a zone reset kills every slot of the zone — and
// places the stripe's next image in another slot: Scan must return the
// replacement, by sequence number, not the first slot it reads.
func TestStaleSlotSuperseded(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, d)
		persistWait(t, e, d, 0, 1, 8) // slot 0
		persistWait(t, e, d, 1, 2, 8) // slot 1
		e.ZoneReset(0)
		persistWait(t, e, d, 1, 9, 8) // the first dead slot, 0: slot 1 keeps the old image

		recs, err := e.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("Scan returned %d records, want 1", len(recs))
		}
		if recs[0].Stripe != 1 || recs[0].Payload[0] != 9 {
			t.Errorf("Scan kept stripe %d fill %d, want stripe 1's replacement (fill 9)", recs[0].Stripe, recs[0].Payload[0])
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
		e := newTestEngine(t, d)
		for i, a := range []Append{mkAppend(d, 0, 0, 1, 8), mkAppend(d, 0, 1, 2, 12), mkAppend(d, 0, 1, 3, 4)} {
			if i == 2 {
				a.Flags = int(zns.FUA)
			}
			fut, _ := persist(t, e, a)
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
		e := newTestEngine(t, d)
		for s := int64(0); s < 2; s++ {
			persistWait(t, e, d, s, byte(s+1), 8)
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

// TestOverflowGoesToLog fills the two-slot table with live stripes, checks
// that Persist reports no slot for a third stripe's images (the caller
// logs them) and counts them, that the PP zone never grows past the table
// or programs a byte, and that closing a stripe frees its slot for the
// next stripe in place.
func TestOverflowGoesToLog(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, d)
		ss := int64(d.Config().SectorSize)
		wp := func() int64 { return d.Zone(0).WP - d.ZoneStart(0) }

		persistWait(t, e, d, 0, 1, 8)
		persistWait(t, e, d, 1, 2, 8)
		if e.width != 2 || wp() != 2*e.stride {
			t.Fatalf("width %d, PP zone WP %d: want two slots (%d sectors)", e.width, wp(), 2*e.stride)
		}
		for _, n := range []int{8, 12} {
			if fut, _, _, noSlot := e.Persist(mkAppend(d, 0, 2, 3, n), true); !noSlot || fut != nil {
				t.Fatalf("stripe 2's %d-sector image: noSlot %v, future %v; want no slot and no write", n, noSlot, fut)
			}
		}
		st := e.Stats()
		if st.FallbackTotal != 2 {
			t.Errorf("FallbackTotal = %d, want 2", st.FallbackTotal)
		}
		if want := (9 + 13) * ss; st.PermanentBytes != want {
			t.Errorf("PermanentBytes = %d, want %d (both logged frames)", st.PermanentBytes, want)
		}

		// Stripe 0 closes: stripe 3 takes its slot, 0, in place.
		e.StripeClosed(0, 0)
		fut, end := persist(t, e, mkAppend(d, 0, 3, 5, 8))
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		if want := d.ZoneStart(0) + 9; end != want {
			t.Errorf("stripe 3 ended at sector %d, want %d (an overwrite of slot 0)", end, want)
		}
		if wp() != 2*e.stride {
			t.Errorf("PP zone WP = %d, want it to stay at %d", wp(), 2*e.stride)
		}
		if n := d.FlashProgramBytes(); n != 0 {
			t.Errorf("PP zone programmed %d bytes to flash, want 0", n)
		}
		recs, err := e.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 || recs[0].Stripe != 3 || recs[1].Stripe != 1 {
			t.Errorf("Scan = %v, want stripes 3 and 1", recs)
		}
	})
}

// TestFormatClearsPool persists slots, formats, and expects an empty zone
// and an empty table.
func TestFormatClearsPool(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, d)
		for s := int64(0); s < 2; s++ {
			persistWait(t, e, d, s, 3, 8)
		}
		if err := e.Format(); err != nil {
			t.Fatalf("Format: %v", err)
		}
		if st := d.Zone(0).State; st != zns.ZoneEmpty {
			t.Errorf("PP zone state %v after Format, want empty", st)
		}
		recs, err := e.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Errorf("Scan found %d records after Format", len(recs))
		}
		for s := int64(77); s < 79; s++ {
			persistWait(t, e, d, s, 4, 8)
		}
	})
}
