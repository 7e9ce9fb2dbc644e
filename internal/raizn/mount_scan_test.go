package raizn

import (
	"bytes"
	"math"
	"testing"
	"time"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// mdReads returns how many read commands the devices have accepted in
// their metadata zones.
func mdReads(lt *layout, devs []*zns.Device) int64 {
	var n int64
	for _, d := range devs {
		for i := range lt.mdZones {
			n += d.ZoneReads(lt.mdZoneIndex(i))
		}
	}
	return n
}

// TestMountReadsEachMetadataZoneOnce pins the cost of a mount's metadata
// scan: after 40 two-sector FUA writes and an unmount, mounting reads each
// metadata zone of each device at most once (superblocks, gather and
// consolidation share one read; it was 252 reads on the logged engine
// when each of the three scanned the logs on its own, a sector or a
// payload per command).
func TestMountReadsEachMetadataZoneOnce(t *testing.T) {
	for _, env := range fuaEnvs() {
		t.Run(env.name, func(t *testing.T) {
			c := vclock.New()
			c.Run(func() {
				devs, v, err := env.create(c)
				if err != nil {
					t.Fatalf("Create: %v", err)
				}
				for i := range 40 {
					mustWriteV(t, v, int64(2*i), 2, zns.FUA)
				}
				if err := v.Unmount(); err != nil {
					t.Fatalf("Unmount: %v", err)
				}
				before := mdReads(v.lt, devs)
				v2, err := Mount(c, devs, env.cfg)
				if err != nil {
					t.Fatalf("Mount: %v", err)
				}
				reads := mdReads(v.lt, devs) - before
				t.Logf("mount read the metadata zones in %d commands", reads)
				if limit := int64(v.lt.mdZones * len(devs)); reads > limit {
					t.Errorf("mount issued %d metadata-zone reads, want at most %d (one per zone and device)", reads, limit)
				}
				checkReadV(t, v2, 0, 80)
			})
		})
	}
}

// TestMountSkipsGarbageHeaders writes one crafted header sector at a
// metadata zone's write pointer and mounts: a header with the right magic
// whose payload length is negative (or overflows) is garbage, and the
// mount must skip it and return, not loop on it.
func TestMountSkipsGarbageHeaders(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  record
	}{
		{"partial parity ending before its start", record{typ: recPartialParity, startLBA: 40, endLBA: 39, gen: 1}},
		{"relocation ending before its start", record{typ: recRelocData, startLBA: 40, endLBA: 39, gen: 1}},
		{"flight box whose sector count overflows", record{typ: recFlightBox, startLBA: math.MaxInt64 - 2, gen: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
					mustWriteV(t, v, 0, 24, zns.FUA)
					if err := v.Unmount(); err != nil {
						t.Error(err)
						return
					}
					hdr := make([]byte, v.sectorSize)
					tc.rec.encodeInto(hdr)
					if _, fut := devs[0].Append(v.md[0].active[mdGeneral], hdr, zns.FUA); fut.Wait() != nil {
						t.Error("crafted header append failed")
						return
					}
					checkReadV(t, remount(t, c, devs), 0, 24)
				})
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("Mount did not return within 30 s")
			}
		})
	}
}

// FuzzDecodeLog checks decodeLog's contract two ways on every input. As a
// zone image, any bytes: no panic, every record ends inside the buffer,
// and record positions strictly increase. As a recipe (logRecipe): a zone
// built from valid records, some behind blank sectors, decodes back to
// exactly those records, and cutting the last record's payload short
// drops that record alone. Tier-1 replays the corpus under
// testdata/fuzz/FuzzDecodeLog/.
func FuzzDecodeLog(f *testing.F) {
	const ss = 64 // small sectors keep fuzzed zones short; a header needs 32 bytes
	lt := &layout{su: 4}
	f.Fuzz(func(t *testing.T, data []byte) {
		zone := make([]byte, (len(data)+ss-1)/ss*ss)
		copy(zone, data)
		prev := int64(-1)
		for _, r := range decodeLog(zone, lt, ss) {
			if r.pba <= prev {
				t.Fatalf("record at sector %d follows one at %d", r.pba, prev)
			}
			if end := (r.pba+1)*ss + int64(len(r.payload)); end > int64(len(zone)) {
				t.Fatalf("%v record at sector %d ends at byte %d, past the zone's %d", r.typ, r.pba, end, len(zone))
			}
			prev = r.pba
		}

		img, want := logRecipe(data, lt, ss)
		sameRecords(t, decodeLog(img, lt, ss), want)
		if n := len(want); n > 0 && len(want[n-1].payload) > 0 {
			sameRecords(t, decodeLog(img[:len(img)-ss], lt, ss), want[:n-1])
		}
	})
}

// logRecipe reads data six bytes at a time as one valid record each,
// optionally behind a blank sector, and returns the zone image holding
// them and the records decodeLog must find in it.
func logRecipe(data []byte, lt *layout, ss int) (zone []byte, want []record) {
	for ; len(data) >= 6; data = data[6:] {
		c := data[:6]
		if c[5]&1 != 0 {
			zone = append(zone, make([]byte, ss)...)
		}
		r := record{typ: recType(c[0]%uint8(recFlightBox)) + 1, startLBA: int64(c[2]), gen: uint64(c[4])}
		if c[0]&0x80 != 0 {
			r.typ |= recCheckpoint
		}
		if r.typ.base() == recFlightBox {
			r.startLBA = int64(c[1]) + 1 // the box's byte length
		} else {
			r.endLBA = r.startLBA + int64(c[1]%8)
		}
		r.inline = bytes.Repeat([]byte{c[3]}, int(c[3])%(ss-headerBytes+1))
		r.payload = bytes.Repeat([]byte{c[3]}, int(r.payloadSectors(lt, ss))*ss)
		r.pba = int64(len(zone) / ss)
		hdr := make([]byte, ss)
		r.encodeInto(hdr)
		zone = append(append(zone, hdr...), r.payload...)
		want = append(want, r)
	}
	return zone, want
}

func sameRecords(t *testing.T, got, want []record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i, g := range got {
		w := want[i]
		if g.typ != w.typ || g.startLBA != w.startLBA || g.endLBA != w.endLBA || g.gen != w.gen || g.pba != w.pba ||
			!bytes.Equal(g.inline, w.inline) || !bytes.Equal(g.payload, w.payload) {
			t.Fatalf("record %d: got %v [%d,%d) gen %d at %d, want %v [%d,%d) gen %d at %d (or its bytes differ)",
				i, g.typ, g.startLBA, g.endLBA, g.gen, g.pba, w.typ, w.startLBA, w.endLBA, w.gen, w.pba)
		}
	}
}
