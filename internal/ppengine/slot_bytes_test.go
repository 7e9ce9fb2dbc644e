package ppengine

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// encodeSlotRef is the slot encoder as it stood before slot writes were
// encoded in the caller's frame: a fresh, zeroed buffer per call. Kept as
// the reference the in-place encoder's device bytes are compared against.
func encodeSlotRef(ss int, stride int64, rec Record, seq uint64, pad bool) []byte {
	payLen := (len(rec.Payload) + ss - 1) / ss
	size := (1 + payLen) * ss
	if pad {
		size = int(stride) * ss
	}
	buf := make([]byte, size)
	binary.LittleEndian.PutUint32(buf[0:4], slotMagic)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(rec.Zone))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(payLen))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(rec.Stripe))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(rec.StartLBA))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(rec.EndLBA))
	binary.LittleEndian.PutUint64(buf[40:48], rec.Gen)
	binary.LittleEndian.PutUint64(buf[48:56], seq)
	copy(buf[ss:], rec.Payload)
	crc := crc32.Update(0, crc32.MakeTable(crc32.Castagnoli), buf[8:slotHdrSize])
	crc = crc32.Update(crc, crc32.MakeTable(crc32.Castagnoli), buf[ss:ss+payLen*ss])
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	return buf
}

// TestSlotBytesMatchReference drives the three ways an image reaches a PP
// zone — a fresh slot, an overwrite in place (longer, then shorter), a dead
// slot reused in place — and after each step compares every live slot's
// bytes on the device with encodeSlotRef of the test's own copy of the
// image. The caller's frame is scribbled over as soon as Persist returns,
// before the write completes: the table may keep nothing of it.
func TestSlotBytesMatchReference(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, ppDevConfig())
		e := newTestEngine(t, d)
		ss := d.Config().SectorSize
		stride := int(e.stride) * ss

		type image struct {
			rec   Record
			seq   uint64
			fresh bool // the slot was appended by this image: padded to the stride
		}
		model := map[slotKey]image{}
		persist := func(stripe int64, fill byte, n int) {
			t.Helper()
			a := mkAppend(d, 0, stripe, fill, n)
			for i := ss; i < len(a.Frame); i++ {
				a.Frame[i] ^= byte(i) // not one repeated byte: position matters
			}
			own := bytes.Clone(a.Frame[ss:])
			wp := d.Zone(0).WP
			fut, _ := persist(t, e, a)
			for i := range a.Frame {
				a.Frame[i] = 0xEE
			}
			if err := fut.Wait(); err != nil {
				t.Fatal(err)
			}
			model[slotKey{0, stripe}] = image{
				rec: Record{Zone: 0, Stripe: stripe, StartLBA: a.StartLBA, EndLBA: a.EndLBA, Gen: a.Gen, Payload: own},
				seq: e.seq,
				// Only an append moves the write pointer.
				fresh: d.Zone(0).WP != wp,
			}
		}
		verify := func(when string) {
			t.Helper()
			type at struct {
				key slotKey
				pba int64
			}
			var live []at
			e.mu.Lock()
			for i, sl := range e.devs[0].slots {
				if sl.live {
					live = append(live, at{sl.key, d.ZoneStart(0) + int64(i)*e.stride})
				}
			}
			e.mu.Unlock()
			if len(live) == 0 {
				t.Fatalf("%s: no live slot to check", when)
			}
			for _, l := range live {
				m, ok := model[l.key]
				if !ok {
					t.Fatalf("%s: live slot for unknown stripe %d", when, l.key.stripe)
				}
				got := make([]byte, stride)
				if err := d.Read(l.pba, got).Wait(); err != nil {
					t.Fatal(err)
				}
				want := encodeSlotRef(ss, e.stride, m.rec, m.seq, m.fresh)
				if !bytes.Equal(got[:len(want)], want) {
					t.Errorf("%s: stripe %d: slot bytes on the device differ from the reference encoding (fresh=%v)",
						when, l.key.stripe, m.fresh)
				}
			}
		}

		persist(0, 1, 4)
		verify("fresh slot")
		persist(0, 2, 12)
		verify("overwrite, longer image")
		persist(0, 3, 2)
		verify("overwrite, shorter image")

		persist(1, 4, 8)
		e.StripeClosed(0, 1)
		persist(2, 5, 3) // takes stripe 1's dead slot: no append
		if wp := d.Zone(0).WP - d.ZoneStart(0); wp != 2*e.stride {
			t.Fatalf("PP zone holds %d sectors, want two slots: the dead slot was not reused", wp)
		}
		verify("dead slot reused")
	})
}
