package raizn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"raizn/internal/ppengine"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// refParity is the bytewise definition a stripe buffer's running parity is
// checked against: the XOR, over the data units of a stripe with `fill`
// sectors written, of intra-unit offsets [a, b); what a unit has not
// written counts as zeroes.
func refParity(lt *layout, ss int64, data []byte, fill, a, b int64) []byte {
	out := make([]byte, (b-a)*ss)
	for u := int64(0); u < int64(lt.d); u++ {
		for sec := a; sec < b; sec++ {
			if u*lt.su+sec >= fill {
				continue
			}
			for i := int64(0); i < ss; i++ {
				out[(sec-a)*ss+i] ^= data[(u*lt.su+sec)*ss+i]
			}
		}
	}
	return out
}

// TestFoldMatchesReference checks foldLocked against refParity and crcOf
// for every fill of a 4+1 array with 4-sector units, the prefix folded
// once sector by sector and once in a single piece. Each slot comes from
// stripeBufferLocked with its parity and CRCs left dirty by a last use:
// unit 0 must overwrite the parity, not XOR into it, and the CRCs must
// start over. The parity is checked over every intra range [a, b) inside
// [0, min(fill, su)), where it is valid, and each unit's CRC against its
// written prefix.
func TestFoldMatchesReference(t *testing.T) {
	const ss = 32
	lt := &layout{n: 5, d: 4, su: 4}
	v := &Volume{lt: lt, sectorSize: ss}
	data := make([]byte, lt.stripeSectors()*ss)
	for i := range data {
		data[i] = byte(i*7 + i>>8 + 1)
	}
	slot := func() *stripeBuffer {
		buf := &stripeBuffer{stripe: -1, par: bytes.Repeat([]byte{0xEE}, int(lt.su*ss)), crcs: make([]uint32, lt.d)}
		for u := range buf.crcs {
			buf.crcs[u] = 0xDEADBEEF
		}
		lz := &logicalZone{free: []*stripeBuffer{buf}, active: map[int64]*stripeBuffer{}}
		got, err := v.stripeBufferLocked(lz, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for fill := int64(0); fill <= lt.stripeSectors(); fill++ {
		bySector, whole := slot(), slot()
		for sec := int64(0); sec < fill; sec++ {
			v.foldLocked(bySector, data[sec*ss:(sec+1)*ss])
		}
		v.foldLocked(whole, data[:fill*ss])
		for name, buf := range map[string]*stripeBuffer{"sector by sector": bySector, "in one piece": whole} {
			if buf.fill != fill {
				t.Fatalf("fill %d folded %s: buffer fill %d", fill, name, buf.fill)
			}
			for a := int64(0); a < min(fill, lt.su); a++ {
				for b := a + 1; b <= min(fill, lt.su); b++ {
					if !bytes.Equal(buf.par[a*ss:b*ss], refParity(lt, ss, data, fill, a, b)) {
						t.Fatalf("fill %d folded %s: parity over [%d,%d) differs from the bytewise reference", fill, name, a, b)
					}
				}
			}
			for u, f := range lt.unitFills(fill) {
				lo := int64(u) * lt.su * ss
				if want := crcOf(data[lo : lo+f*ss]); buf.crcs[u] != want {
					t.Fatalf("fill %d folded %s: unit %d CRC %08x, want %08x", fill, name, u, buf.crcs[u], want)
				}
			}
		}
	}
}

// submitWith carries one write through the steps of runWrite — plan,
// compute and submit under lz.mu, metadata appends, publish, and the
// completion join — on the write state it is given instead of one from the
// pool. It returns the sub-IOs, without waiting for them, and the write's
// result future, completed like runWrite's once the last sub-IO has: ws is
// back in the pool by then.
func submitWith(t *testing.T, v *Volume, ws *writeState, lba int64, data []byte, flags zns.Flag) ([]subIO, *vclock.Future) {
	t.Helper()
	z := v.lt.zoneOf(lba)
	off := lba - v.lt.zoneStart(z)
	lz := v.zones[z]
	lz.mu.Lock()
	if lz.state == zns.ZoneEmpty || lz.state == zns.ZoneClosed {
		if err := v.openZoneSlot(lz); err != nil {
			t.Fatal(err)
		}
	}
	ws.z, ws.flags = z, flags&zns.FUA
	ws.end = off + int64(len(data)/v.sectorSize)
	lz.wp = ws.end
	if err := v.planWriteLocked(ws, lz, off, data); err != nil {
		t.Fatal(err)
	}
	v.computeWrite(ws)
	v.submitWriteLocked(ws, lz)
	lz.unpublished++
	lz.mu.Unlock()
	ws.futs = v.issuePendingMD(nil, ws, ws.pending, ws.futs, ws.flags)
	durable := flags&(zns.FUA|zns.Preflush) != 0
	result := v.clk.NewFuture()
	var chain, prev *vclock.Future
	if durable {
		chain = result
	}
	ws.futs, prev = v.publishWrite(nil, lz, ws.pending, ws.futs, flags, chain)
	futs := append([]subIO(nil), ws.futs...)
	v.completeWrite(ws, lz, durable, prev, result)
	return futs, result
}

// TestReusedWriteBuffersLeaveRecordsIntact is the array's side of the rule
// that a device write's payload is the device's until the command
// completes. The parity images, partial-parity frames and checksum-record
// sectors of a write state are reused by the next write, so the write's
// result must not complete before every device command that carries one of
// them has. Here each write's buffers are scribbled over from its result
// future's Subscribe — the instant the write releases them — and the second
// write then builds its payloads in the very buffers of the first. Each
// write is a full stripe plus a partial one reaching into the unit of one
// chosen device, in zones of its own. Whatever a device, an engine or the
// metadata log had not taken in by then reads 0xEE. After a power cut that
// keeps only persisted data, the partial-parity images on media must equal
// the bytewise reference, and the remounted array — without the chosen
// device, when it failed before the writes or while the first was in
// flight, so that its share exists nowhere but in parity — must read
// everything back.
func TestReusedWriteBuffersLeaveRecordsIntact(t *testing.T) {
	const victim = 1
	for _, env := range []fuaEnv{
		{"logged", testDevConfig(), DefaultConfig()},
		{"zraid", zraidDevConfig(), zraidConfig()},
	} {
		// degraded: the victim fails before the writes ("true"), while the
		// first is in flight ("mid-write"), or not at all.
		for _, degraded := range []string{"false", "true", "mid-write"} {
			env, degraded := env, degraded
			t.Run(fmt.Sprintf("%s/degraded=%s", env.name, degraded), func(t *testing.T) {
				c := vclock.New()
				c.Run(func() {
					devs := make([]*zns.Device, 5)
					for i := range devs {
						devs[i] = zns.NewDevice(c, env.dev)
					}
					v, err := Create(c, devs, env.cfg)
					if err != nil {
						t.Fatal(err)
					}
					if degraded == "true" {
						if err := v.FailDevice(victim); err != nil {
							t.Fatal(err)
						}
					}
					ss, su, stripe := int64(v.sectorSize), v.lt.su, v.lt.stripeSectors()
					// Per zone: stripe 0 whole, stripe 1 up to 4 sectors into
					// the victim's unit.
					length := func(z int) int64 {
						u := v.lt.unitOfDev(z, 1, victim)
						if u < 0 {
							t.Fatalf("device %d holds the parity of zone %d stripe 1; pick another", victim, z)
						}
						return stripe + int64(u)*su + 4
					}
					n0, n1 := length(0), length(1)
					lba1 := v.lt.zoneStart(1)
					// write submits one write on ws and scribbles over its
					// buffers the moment its result completes; mid runs
					// while the write's sub-IOs are in flight.
					write := func(ws *writeState, lba int64, n int64, mid func()) {
						futs, result := submitWith(t, v, ws, lba, lbaPattern(v, lba, int(n)), zns.FUA)
						for _, s := range futs {
							if s.fut.Done() {
								t.Fatal("a sub-IO completed at submit; the scribble proves nothing")
							}
						}
						owned := [][][]byte{ws.images, ws.frames, ws.csRecs}
						result.Subscribe(func(error) {
							// The copier may have landed every payload
							// already; what the contract needs is that no
							// command is still in flight.
							for _, s := range futs {
								if !s.fut.Done() {
									t.Error("the write completed before one of its device commands")
								}
							}
							for _, bufs := range owned {
								for _, b := range bufs {
									b = b[:cap(b)]
									for i := range b {
										b[i] = 0xEE
									}
								}
							}
						})
						if mid != nil {
							mid()
						}
						if err := result.Wait(); err != nil {
							t.Fatal(err)
						}
					}
					var mid func()
					if degraded == "mid-write" {
						mid = func() {
							if err := v.FailDevice(victim); err != nil {
								t.Fatal(err)
							}
						}
					}
					ws1, ws2 := v.getWriteState(), v.getWriteState()
					write(ws1, 0, n0, mid)
					ws2.images, ws2.frames, ws2.csRecs = ws1.images, ws1.frames, ws1.csRecs
					write(ws2, lba1, n1, nil)
					if len(ws2.images) == 0 || len(ws2.frames) == 0 || len(ws2.csRecs) == 0 {
						t.Fatalf("writes built %d images, %d frames, %d checksum sectors; want each kind reused",
							len(ws2.images), len(ws2.frames), len(ws2.csRecs))
					}
					if &ws1.images[0][0] != &ws2.images[0][0] || &ws1.frames[0][0] != &ws2.frames[0][0] || &ws1.csRecs[0][0] != &ws2.csRecs[0][0] {
						t.Fatal("the second write did not build its payloads in the first one's buffers")
					}

					for _, d := range devs {
						d.PowerLoss(nil)
					}
					// The images as the media hold them, per zone: a whole
					// zraid array's in its slots, every other array's in
					// the log.
					images := map[int][]byte{}
					if env.cfg.ParityEngine == EngineZRAID {
						recs, err := v.slots.Scan()
						if err != nil {
							t.Fatal(err)
						}
						for _, r := range recs {
							images[r.Zone] = r.Payload
						}
					}
					for z := 0; z < 2; z++ {
						recs, err := scanMDZones(devs[v.lt.parityDev(z, 1)], v.lt, v.sectorSize)
						if err != nil {
							t.Fatal(err)
						}
						for _, r := range recs {
							if r.typ == recPartialParity && r.startLBA == v.lt.stripeStart(z, 1) {
								images[z] = r.payload
							}
						}
					}
					for z, n := range []int64{n0, n1} {
						data := lbaPattern(v, v.lt.stripeStart(z, 1), int(stripe))
						want := refParity(v.lt, ss, data, n-stripe, 0, su)
						if got := images[z]; !bytes.Equal(got, want) {
							t.Errorf("zone %d: partial-parity image on media (%d bytes) differs from the reference", z, len(got))
						}
					}

					live := devs
					if degraded != "false" {
						live = append(devs[:victim:victim], devs[victim+1:]...)
					}
					v2, err := Mount(c, live, env.cfg)
					if err != nil {
						t.Fatalf("Mount: %v", err)
					}
					checkReadV(t, v2, 0, int(n0))
					checkReadV(t, v2, lba1, int(n1))
					for z := 0; z < 2; z++ {
						if degraded != "false" && v.checksumDev(z) == victim {
							continue // the zone's checksum log died with the device
						}
						if v2.StripeChecksums(z, 0) == nil {
							t.Errorf("zone %d stripe 0: checksum record did not survive", z)
						}
					}
				})
			})
		}
	}
}

// encodeRecordRef is record.encode as it stood before records were encoded
// in place: header, inline and payload copied into a fresh, zeroed buffer.
// Kept as the reference for what a log record's sectors must hold.
func encodeRecordRef(r *record, sectorSize int) []byte {
	buf := make([]byte, r.sectors(sectorSize)*int64(sectorSize))
	binary.LittleEndian.PutUint32(buf[0:4], mdMagic)
	binary.LittleEndian.PutUint16(buf[4:6], uint16(r.typ))
	binary.LittleEndian.PutUint16(buf[6:8], uint16(len(r.inline)))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(r.startLBA))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(r.endLBA))
	binary.LittleEndian.PutUint64(buf[24:32], r.gen)
	copy(buf[headerBytes:], r.inline)
	copy(buf[sectorSize:], r.payload)
	return buf
}

// TestLogRecordBytesMatchReference reads back, sector for sector, the
// records the write path now encodes in place — a partial-parity frame the
// logged engine appended, one the zraid engine had no slot for (table full)
// and logged instead, and a completed stripe's
// checksum record — and compares each with encodeRecordRef of the same
// record. The frames are dirty by then: every volume below has written
// before, so a header sector or an image tail that is not rewritten in full
// shows as a difference.
func TestLogRecordBytesMatchReference(t *testing.T) {
	check := func(t *testing.T, v *Volume, d *zns.Device, want record) {
		t.Helper()
		recs, err := scanMDZones(d, v.lt, v.sectorSize)
		if err != nil {
			t.Fatal(err)
		}
		for i := range recs {
			r := &recs[i]
			if r.typ != want.typ || r.startLBA != want.startLBA || r.endLBA != want.endLBA || !bytes.Equal(r.inline, want.inline) {
				continue
			}
			want.gen = r.gen
			ref := encodeRecordRef(&want, v.sectorSize)
			got := make([]byte, len(ref))
			if err := d.Read(r.pba, got).Wait(); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Errorf("%v record [%d,%d) on media differs from the reference encoding", want.typ, want.startLBA, want.endLBA)
			}
			return
		}
		t.Errorf("no %v record [%d,%d) on the device", want.typ, want.startLBA, want.endLBA)
	}
	// ppRecord is the §5.1 record of a write covering sectors [a, b) of
	// stripe s in zone 0, when the stripe holds b sectors afterwards.
	ppRecord := func(v *Volume, s, a, b int64) record {
		start := v.lt.stripeStart(0, s)
		data := lbaPattern(v, start, int(v.lt.stripeSectors()))
		var payload []byte
		regs, n := v.lt.intraRegions(a, b)
		for _, r := range regs[:n] {
			payload = append(payload, refParity(v.lt, int64(v.sectorSize), data, b, r.a, r.b)...)
		}
		return record{typ: recPartialParity, startLBA: start + a, endLBA: start + b, payload: payload}
	}

	t.Run("logged", func(t *testing.T) {
		runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
			mustWriteV(t, v, 0, 20, 0)        // a 17-sector frame
			mustWriteV(t, v, 20, 6, 0)        // a shorter image in the same frame
			mustWriteV(t, v, 26, 38, zns.FUA) // completes the stripe, durably: checksum record
			mustWriteV(t, v, 64, 14, 0)       // stripe 1
			mustWriteV(t, v, 78, 6, 0)        // wraps a unit boundary: two regions
			check(t, v, devs[v.lt.parityDev(0, 0)], ppRecord(v, 0, 20, 26))
			check(t, v, devs[v.lt.parityDev(0, 1)], ppRecord(v, 1, 0, 14))
			check(t, v, devs[v.lt.parityDev(0, 1)], ppRecord(v, 1, 14, 20))
			check(t, v, devs[v.checksumDev(0)], record{
				typ: recChecksums, inline: encodeChecksums(0, 0, v.StripeChecksums(0, 0)),
			})
		})
	})
	t.Run("zraid-fallback", func(t *testing.T) {
		runZraidVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
			// Fill device 0's two-slot table with live stripes the volume
			// never closes.
			ss := v.SectorSize()
			for i := 0; i < 2; i++ {
				persistPP(t, v, ppengine.Append{
					Dev: 0, Zone: 0, Stripe: int64(1000 + i),
					StartLBA: 0, EndLBA: 8, Gen: 999,
					Frame: make([]byte, (1+8)*ss),
				})
			}
			// Stripe 4 of zone 0 sends its partial parity to device 0.
			for s := int64(0); s < 4; s++ {
				mustWriteV(t, v, s*64, 64, 0)
			}
			before := v.PPEngineStats().FallbackTotal
			mustWriteV(t, v, 256, 20, 0)
			mustWriteV(t, v, 276, 6, 0)
			if got := v.PPEngineStats().FallbackTotal - before; got != 2 {
				t.Fatalf("%d of 2 partial-parity images overflowed to the log", got)
			}
			check(t, v, devs[0], ppRecord(v, 4, 0, 20))
			check(t, v, devs[0], ppRecord(v, 4, 20, 26))
		})
	})
}
