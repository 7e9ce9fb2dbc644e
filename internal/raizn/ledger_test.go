package raizn

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// TestZoneMarks exercises the per-(zone, device) half of the ledger on its
// own: which sub-IOs a FUA sub-IO retires, and what a flush must cover.
func TestZoneMarks(t *testing.T) {
	const zoneSize = 100 // physical zones [0,100), [100,200), ...
	t.Run("FUA retires its physical zone's prefix only", func(t *testing.T) {
		var zm zoneMarks
		zm.note(10, 1, false, zoneSize)  // zone 0
		zm.note(150, 2, false, zoneSize) // zone 1
		zm.note(20, 3, true, zoneSize)   // FUA in zone 0 past the mark
		if need := zm.take(); need != 2 {
			t.Errorf("need = %d, want 2 (zone 1's mark)", need)
		}
		if need := zm.take(); need != 0 {
			t.Errorf("need after take = %d, want 0", need)
		}
	})
	t.Run("FUA below a mark leaves it", func(t *testing.T) {
		// An in-place ZRWA overwrite (a zraid slot) can sit below an
		// earlier sub-IO of the same zone; its prefix stops short of it.
		var zm zoneMarks
		zm.note(60, 5, false, zoneSize)
		zm.note(40, 6, true, zoneSize)
		if need := zm.take(); need != 5 {
			t.Errorf("need = %d, want 5", need)
		}
	})
	t.Run("a zone's last sector belongs to it", func(t *testing.T) {
		var zm zoneMarks
		zm.note(100, 1, false, zoneSize) // ends exactly at zone 0's end
		zm.note(120, 2, true, zoneSize)  // FUA in zone 1 must not retire it
		if need := zm.take(); need != 1 {
			t.Errorf("need = %d, want 1", need)
		}
	})
	t.Run("a fifth physical zone spills the oldest mark", func(t *testing.T) {
		var zm zoneMarks
		for i := int64(0); i < zoneMarkSlots+1; i++ {
			zm.note(i*zoneSize+10, uint64(i+1), false, zoneSize)
		}
		zm.note(10+5, 9, true, zoneSize) // would have retired zone 0's mark
		if zm.spill != 1 {
			t.Errorf("spill = %d, want 1 (zone 0's evicted mark)", zm.spill)
		}
		if need := zm.take(); need != zoneMarkSlots+1 {
			t.Errorf("need = %d, want %d", need, zoneMarkSlots+1)
		}
	})
}

// fuaEnv is one array flavour of the power-loss matrix.
type fuaEnv struct {
	name string
	dev  zns.Config
	cfg  Config
}

func fuaEnvs() []fuaEnv {
	return []fuaEnv{
		{"EngineLogged", testDevConfig(), DefaultConfig()},
		{"EngineZRAID", zraidDevConfig(), zraidConfig()},
	}
}

// create builds a fresh five-device array of the env's flavour.
func (env fuaEnv) create(c *vclock.Clock) ([]*zns.Device, *Volume, error) {
	devs := make([]*zns.Device, 5)
	for i := range devs {
		devs[i] = zns.NewDevice(c, env.dev)
	}
	v, err := Create(c, devs, env.cfg)
	return devs, v, err
}

// TestFUAStreamSurvivesPowerLoss is the durability side of the flush-free
// FUA path: an all-FUA stream never flushes, so every ack must stand on
// the FUA sub-IOs alone. After EACH ack every device loses power keeping
// only its persisted prefixes (the most pessimistic outcome), the array is
// remounted, and every acked sector must read back; the stream continues
// on the remounted volume, at its write pointer (recovery may adopt
// debris beyond the acked prefix). The stream ends writes on stripe
// boundaries (full parity + checksum rows), inside units and across
// stripes.
func TestFUAStreamSurvivesPowerLoss(t *testing.T) {
	for _, env := range fuaEnvs() {
		for _, scenario := range []string{"healthy", "degraded", "burned-prefix"} {
			env, scenario := env, scenario
			t.Run(env.name+"/"+scenario, func(t *testing.T) {
				stream := []int{4, 12, 16, 32, 7, 57, 70, 3, 55}
				c := vclock.New()
				c.Run(func() {
					devs, v, err := env.create(c)
					if err != nil {
						t.Fatalf("Create: %v", err)
					}
					crash := func() {
						t.Helper()
						for _, d := range devs {
							d.PowerLoss(nil)
						}
						if v, err = Mount(c, devs, env.cfg); err != nil {
							t.Fatalf("Mount: %v", err)
						}
					}
					var acked [][2]int64 // ranges whose write (or flush) was acknowledged
					switch scenario {
					case "degraded":
						const victim = 1
						if err := v.FailDevice(victim); err != nil {
							t.Fatal(err)
						}
						devs = append(devs[:victim:victim], devs[victim+1:]...)
					case "burned-prefix":
						// Fig. 1: of a partial stripe only unit 2 survives
						// the crash, so the zone is truncated to stripe 0
						// and the stream's writes over unit 2's device are
						// relocated to its metadata zone.
						mustWriteV(t, v, 0, 64, 0)
						if err := v.Flush(); err != nil {
							t.Fatal(err)
						}
						debris := lbaPattern(v, 64, 48)
						for i := range debris {
							debris[i] ^= 0xFF // what survives must not pass for the rewrite
						}
						if err := v.Write(64, debris, 0); err != nil {
							t.Fatal(err)
						}
						keep := v.lt.dataDev(0, 1, 2)
						for i, d := range devs {
							cuts := map[int]int64{}
							if i == keep {
								cuts[0] = d.Zone(0).WP - d.ZoneStart(0)
							}
							d.PowerLossAt(cuts)
						}
						if v, err = Mount(c, devs, env.cfg); err != nil {
							t.Fatalf("Mount: %v", err)
						}
						if wp := v.Zone(0).WP; wp != 64 {
							t.Fatalf("WP after the torn stripe = %d, want 64", wp)
						}
						acked = append(acked, [2]int64{0, 64})
						// The first write must run over the debris before a
						// remount, seeing units 0 and 1 rewritten, adopts it
						// as unit 2.
						stream = []int{57, 7, 4, 12, 16, 32, 70, 3}
					}
					relocated := false
					for _, n := range stream {
						lba := v.Zone(0).WP
						mustWriteV(t, v, lba, n, zns.FUA)
						if st := v.Stats(); st.FUAFlushes+st.FUAFlushesJoined != 0 {
							t.Errorf("FUA write at %d needed %d flushes; the stream is all FUA", lba, st.FUAFlushes+st.FUAFlushesJoined)
						}
						acked = append(acked, [2]int64{lba, lba + int64(n)})
						relocated = relocated || v.RelocationCount() > 0
						crash()
						if wp := v.Zone(0).WP; wp < lba+int64(n) {
							t.Fatalf("after the ack of [%d,%d): WP = %d", lba, lba+int64(n), wp)
						}
						for _, r := range acked {
							checkReadV(t, v, r[0], int(r[1]-r[0]))
						}
					}
					if scenario == "burned-prefix" && !relocated {
						t.Error("no write of the stream was relocated")
					}
				})
			})
		}
	}
}

// TestFUAConcurrentAppendersDurable drives the ledger from several
// goroutines at once: appenders with mixed flags share two zones, and
// whatever a completed FUA append covers must survive a pessimistic power
// loss. Run under -race.
func TestFUAConcurrentAppendersDurable(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		ss := v.SectorSize()
		zs := v.ZoneSectors()
		shadow := make([]byte, 2*int(zs)*ss)
		var mu sync.Mutex
		var fuaHigh [2]int64 // per zone: highest end of a completed FUA append
		wg := c.NewWaitGroup()
		for g := 0; g < 6; g++ {
			g := g
			wg.Add(1)
			c.Go(func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g)))
				for i := 0; i < 12; i++ {
					z := rng.Intn(2)
					n := 1 + rng.Intn(12)
					data := make([]byte, n*ss)
					rng.Read(data)
					flags := zns.Flag(0)
					if rng.Intn(2) == 0 {
						flags = zns.FUA
					}
					lba, fut := v.SubmitAppend(z, data, flags)
					err := fut.Wait()
					if lba < 0 {
						continue // the zone filled up
					}
					if err != nil {
						t.Errorf("append: %v", err)
						return
					}
					copy(shadow[lba*int64(ss):], data)
					if flags == zns.FUA {
						mu.Lock()
						fuaHigh[z] = max(fuaHigh[z], lba+int64(n)-int64(z)*zs)
						mu.Unlock()
					}
				}
			})
		}
		wg.Wait()
		for _, d := range devs {
			d.PowerLoss(nil)
		}
		v2 := remount(t, c, devs)
		for z := int64(0); z < 2; z++ {
			wp := v2.Zone(int(z)).WP - z*zs
			if wp < fuaHigh[z] {
				t.Fatalf("zone %d: WP %d below the last acked FUA append's end %d", z, wp, fuaHigh[z])
			}
			buf := make([]byte, wp*int64(ss))
			if wp == 0 {
				continue
			}
			if err := v2.Read(z*zs, buf); err != nil {
				t.Fatalf("read zone %d: %v", z, err)
			}
			if !bytes.Equal(buf, shadow[z*zs*int64(ss):][:len(buf)]) {
				t.Fatalf("zone %d: data mismatch below WP %d", z, wp)
			}
		}
	})
}

// TestRolledOutZoneOwesNothing: a non-FUA write leaves the zone a mark in
// the parity device's metadata log; the log rolls over (its checkpoint,
// durable by FUA, re-logs the stripe's partial parity; the old zone is
// reset); a FUA write of the same zone — whose own log record lands in the
// new zone and so cannot retire a mark in the old one — then owes that
// device nothing and flushes only the data device the first write left
// dirty. At the parent the checkpoint's device flush covered the mark, so
// the FUA write asks for the same single flush on both sides, but the
// parent's roll-over cost a device flush of its own and this one costs
// none. The acknowledged range survives a pessimistic power cut, with and
// without the device holding unit 0 (so the stripe stands on the
// checkpointed image plus the FUA record).
func TestRolledOutZoneOwesNothing(t *testing.T) {
	runVol(t, func(c *vclock.Clock, v *Volume, devs []*zns.Device) {
		pdev, unit0 := v.lt.parityDev(0, 0), v.lt.dataDev(0, 0, 0)
		flushes0 := deviceFlushes(devs)
		mustWriteV(t, v, 0, 20, 0) // unit 0 and four sectors of unit 1
		if _, err := v.rollRound([]*mdManager{v.md[pdev]}, mdParity, true, nil); err != nil {
			t.Fatal(err)
		}
		mustWriteV(t, v, 20, 4, zns.FUA) // its FUA sub-IO persists unit 1's prefix
		st := v.Stats()
		if asked, issued := st.FUAFlushes+st.FUAFlushesJoined, deviceFlushes(devs)-flushes0; asked != 1 || issued != 1 {
			t.Errorf("FUA write after the roll-over asked for %d flushes, devices saw %d, want 1 and 1 (unit 0's device)", asked, issued)
		}
		for _, omit := range []int{-1, unit0} {
			clk, clones := vclock.New(), []*zns.Device{}
			for i, d := range devs {
				if i != omit {
					clones = append(clones, d.CrashClone(clk, nil, nil))
				}
			}
			clk.Run(func() {
				v2, err := Mount(clk, clones, DefaultConfig())
				if err != nil {
					t.Fatalf("Mount without device %d: %v", omit, err)
				}
				if wp := v2.Zone(0).WP; wp < 24 {
					t.Fatalf("without device %d: WP = %d, want the acked 24", omit, wp)
				}
				checkReadV(t, v2, 0, 24)
			})
		}
	})
}
