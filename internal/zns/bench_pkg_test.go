package zns

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"raizn/internal/vclock"
)

// BenchmarkDeviceWrite4K measures host-side simulator cost per device
// write (virtual time excluded by construction).
func BenchmarkDeviceWrite4K(b *testing.B) {
	c := vclock.New()
	c.Run(func() {
		cfg := DefaultConfig()
		cfg.DiscardData = true
		d := NewDevice(c, cfg)
		buf := make([]byte, 4096)
		b.SetBytes(4096)
		b.ResetTimer()
		var sector int64
		zone := 0
		for i := 0; i < b.N; i++ {
			if sector-d.ZoneStart(zone) >= cfg.ZoneCap {
				zone++
				if zone == cfg.NumZones {
					b.StopTimer()
					for z := 0; z < cfg.NumZones; z++ {
						d.ResetZone(z)
					}
					zone = 0
					b.StartTimer()
				}
				sector = d.ZoneStart(zone)
			}
			if err := d.Write(sector, buf, 0).Wait(); err != nil {
				b.Fatal(err)
			}
			sector++
		}
	})
}

// BenchmarkDeviceReadClients is the benchmark's randread shape at the
// device: four vclock clients, each reading 4, 16 or 64 KiB at random
// sector-aligned offsets of a prefilled device and waiting for the read
// before the next. ns/op is host time per read, its copy into the client's
// buffer included (readcopy.go).
func BenchmarkDeviceReadClients(b *testing.B) {
	const clients = 4
	cfg := DefaultConfig()
	cfg.NumZones = 8 // 32 MiB of payload
	c := vclock.New()
	c.Run(func() {
		d := NewDevice(c, cfg)
		fill := make([]byte, cfg.ZoneCap*int64(cfg.SectorSize))
		for z := 0; z < cfg.NumZones; z++ {
			if err := d.Write(d.ZoneStart(z), fill, 0).Wait(); err != nil {
				b.Fatal(err)
			}
		}
		sizes := []int64{1, 4, 16} // sectors: 4, 16 and 64 KiB
		var left atomic.Int64
		left.Store(int64(b.N))
		wg := c.NewWaitGroup()
		b.ResetTimer()
		for i := 0; i < clients; i++ {
			wg.Add(1)
			rng := rand.New(rand.NewSource(int64(i)))
			buf := make([]byte, 16*cfg.SectorSize)
			c.Go(func() {
				defer wg.Done()
				for left.Add(-1) >= 0 {
					n := sizes[rng.Intn(len(sizes))]
					z := rng.Intn(cfg.NumZones)
					sector := d.ZoneStart(z) + rng.Int63n(cfg.ZoneCap-n+1)
					if err := d.Read(sector, buf[:n*int64(cfg.SectorSize)]).Wait(); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
		wg.Wait()
	})
}
