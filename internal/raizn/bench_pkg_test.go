package raizn

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"raizn/internal/obs"
	"raizn/internal/obs/flight"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// Package benchmarks measure the HOST-side cost of the simulation (ns/op
// of real CPU per simulated IO), not device performance — device timing
// is virtual. They bound how large an experiment the harness can run.

func benchVolume(b *testing.B, fn func(c *vclock.Clock, v *Volume)) {
	b.Helper()
	benchVolumeCfg(b, DefaultConfig(), fn)
}

func benchVolumeCfg(b *testing.B, vcfg Config, fn func(c *vclock.Clock, v *Volume)) {
	b.Helper()
	c := vclock.New()
	c.Run(func() {
		cfg := zns.DefaultConfig()
		cfg.DiscardData = true
		if vcfg.ParityEngine == EngineZRAID {
			cfg.ZRWASectors = 2 * (vcfg.StripeUnitSectors + 1) // two PP slots
		}
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, cfg)
		}
		v, err := Create(c, devs, vcfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		fn(c, v)
	})
}

// benchSeqWrite drives sequential whole-volume writes of the given size,
// resetting all zones on wrap, and reports host-side allocations per
// operation — the write path's allocation guard is measured here.
func benchSeqWrite(b *testing.B, vcfg Config, nSectors int64) {
	benchSeqWriteFlags(b, vcfg, nSectors, 0)
}

func benchSeqWriteFlags(b *testing.B, vcfg Config, nSectors int64, flags zns.Flag) {
	benchVolumeCfg(b, vcfg, func(c *vclock.Clock, v *Volume) {
		buf := make([]byte, nSectors*int64(v.SectorSize()))
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		var lba int64
		for i := 0; i < b.N; i++ {
			if lba+nSectors > v.NumSectors() {
				b.StopTimer()
				for z := 0; z < v.NumZones(); z++ {
					v.ResetZone(z)
				}
				lba = 0
				b.StartTimer()
			}
			if err := v.Write(lba, buf, flags); err != nil {
				b.Fatal(err)
			}
			lba += nSectors
		}
	})
}

// SubmitWrite host-cost benchmarks. The interesting columns are ns/op and
// allocs/op: the write path pools its write state and parity images.

func BenchmarkSubmitWrite4K(b *testing.B)  { benchSeqWrite(b, DefaultConfig(), 1) }
func BenchmarkSubmitWrite16K(b *testing.B) { benchSeqWrite(b, DefaultConfig(), 4) }
func BenchmarkSubmitWrite16KZRAID(b *testing.B) {
	benchSeqWriteFlags(b, zraidConfig(), 4, zns.FUA)
}
func BenchmarkSubmitWriteStripe(b *testing.B) {
	benchSeqWrite(b, DefaultConfig(), DefaultConfig().StripeUnitSectors*4)
}

// A 4-stripe write is where coalescing pays: each device receives 4
// physically adjacent stripe units, which merge into one vectored
// command instead of 4 separate ones.
func BenchmarkSubmitWrite4Stripe(b *testing.B) {
	benchSeqWrite(b, DefaultConfig(), DefaultConfig().StripeUnitSectors*16)
}

func BenchmarkVolumeWrite4K(b *testing.B) {
	benchVolume(b, func(c *vclock.Clock, v *Volume) {
		buf := make([]byte, 4096)
		zs := v.ZoneSectors()
		var lba int64
		b.SetBytes(4096)
		for i := 0; i < b.N; i++ {
			if lba%zs == 0 && lba > 0 && lba/zs >= int64(v.NumZones()) {
				b.StopTimer()
				for z := 0; z < v.NumZones(); z++ {
					v.ResetZone(z)
				}
				lba = 0
				b.StartTimer()
			}
			if err := v.Write(lba, buf, 0); err != nil {
				b.Fatal(err)
			}
			lba++
			if lba >= v.NumSectors() {
				b.StopTimer()
				for z := 0; z < v.NumZones(); z++ {
					v.ResetZone(z)
				}
				lba = 0
				b.StartTimer()
			}
		}
	})
}

func BenchmarkVolumeWriteStripe(b *testing.B) {
	benchVolume(b, func(c *vclock.Clock, v *Volume) {
		buf := make([]byte, v.StripeSectors()*int64(v.SectorSize()))
		b.SetBytes(int64(len(buf)))
		var lba int64
		for i := 0; i < b.N; i++ {
			if lba+v.StripeSectors() > v.NumSectors() {
				b.StopTimer()
				for z := 0; z < v.NumZones(); z++ {
					v.ResetZone(z)
				}
				lba = 0
				b.StartTimer()
			}
			if err := v.Write(lba, buf, 0); err != nil {
				b.Fatal(err)
			}
			lba += v.StripeSectors()
		}
	})
}

// readTo reads buf at lba through SubmitReadTo, completing fut, and
// re-arms fut for the next read: a loop of them costs what the read path
// does without a result future of its own.
func readTo(v *Volume, fut *vclock.Future, lba int64, buf []byte) error {
	err := v.SubmitReadTo(fut, lba, buf).Wait()
	fut.Rearm()
	return err
}

// benchRead64K reads 64 KiB at a time from one filled zone, with the
// device numbered failed out of service (-1: none), through SubmitRead or,
// with to set, through SubmitReadTo and one re-armed caller future.
func benchRead64K(b *testing.B, failed int, to bool) {
	benchVolume(b, func(c *vclock.Clock, v *Volume) {
		init := make([]byte, v.ZoneSectors()*int64(v.SectorSize()))
		if err := v.Write(0, init, 0); err != nil {
			b.Fatal(err)
		}
		if failed >= 0 {
			v.FailDevice(failed)
		}
		buf := make([]byte, 64<<10)
		n := v.ZoneSectors() - 16
		fut := c.NewFuture()
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if to {
				err = readTo(v, fut, int64(i)%n, buf)
			} else {
				err = v.Read(int64(i)%n, buf)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkVolumeRead64K(b *testing.B)   { benchRead64K(b, -1, false) }
func BenchmarkVolumeReadTo64K(b *testing.B) { benchRead64K(b, -1, true) }

// BenchmarkDegradedRead64K reads complete stripes with device 0 failed,
// through SubmitReadTo.
func BenchmarkDegradedRead64K(b *testing.B) { benchRead64K(b, 0, true) }

// BenchmarkDegradedReadOpenStripe64K reads 64 KiB from an open stripe
// (63 of 64 sectors written) with its unit 1 device failed, through
// SubmitReadTo: every read rebuilds part of unit 1 from the stripe
// buffer's running parity and the survivors' device reads.
func BenchmarkDegradedReadOpenStripe64K(b *testing.B) {
	benchVolume(b, func(c *vclock.Clock, v *Volume) {
		fill := v.StripeSectors() - 1
		if err := v.Write(0, make([]byte, fill*int64(v.SectorSize())), 0); err != nil {
			b.Fatal(err)
		}
		v.FailDevice(v.lt.dataDev(0, 0, 1))
		buf := make([]byte, 64<<10)
		su := v.lt.su
		fut := c.NewFuture()
		b.SetBytes(int64(len(buf)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Every start in [1, 2su) overlaps unit 1.
			if err := readTo(v, fut, 1+int64(i)%(2*su-1), buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDegradedReadClients is the canonical benchmark's degraded
// workload in small: four vclock clients, each reading 4, 16 or 64 KiB at
// random size-aligned offsets of two filled zones with device 0 failed,
// through SubmitReadTo, and waiting for the read before the next. Payloads
// are materialized, so a fifth of the units are rebuilt by reconstruction
// jobs that the copier and the reads' completions split. ns/op is host
// time per read.
func BenchmarkDegradedReadClients(b *testing.B) {
	const clients, zones = 4, 2
	benchVolumeData(b, DefaultConfig(), func(c *vclock.Clock, v *Volume) {
		b.StopTimer()
		ss := int64(v.SectorSize())
		fill := make([]byte, v.ZoneSectors()*ss)
		for z := int64(0); z < zones; z++ {
			for i := range fill {
				fill[i] = byte(int64(i)/ss + z)
			}
			if err := v.Write(z*v.ZoneSectors(), fill, 0); err != nil {
				b.Fatal(err)
			}
		}
		v.FailDevice(0)
		sizes := []int64{1, 4, 16} // sectors: 4, 16 and 64 KiB
		var left atomic.Int64
		left.Store(int64(b.N))
		wg := c.NewWaitGroup()
		b.StartTimer()
		for i := 0; i < clients; i++ {
			wg.Add(1)
			rng := rand.New(rand.NewSource(int64(i)))
			buf := make([]byte, 16*ss)
			fut := c.NewFuture()
			c.Go(func() {
				defer wg.Done()
				for left.Add(-1) >= 0 {
					n := sizes[rng.Intn(len(sizes))]
					lba := rng.Int63n(zones*v.ZoneSectors()/n) * n
					if err := readTo(v, fut, lba, buf[:n*ss]); err != nil {
						b.Error(err)
						return
					}
				}
			})
		}
		wg.Wait()
	})
}

// benchVolumeData is benchVolumeCfg with payloads materialized
// (DiscardData off), so reads pay the payload copy.
func benchVolumeData(b *testing.B, vcfg Config, fn func(c *vclock.Clock, v *Volume)) {
	b.Helper()
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, zns.DefaultConfig())
		}
		v, err := Create(c, devs, vcfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		fn(c, v)
	})
}

// benchSeqReadCopy measures sequential reads of nSectors from one filled
// zone, payload copied into the caller's buffer.
func benchSeqReadCopy(b *testing.B, vcfg Config, nSectors int64) {
	benchVolumeData(b, vcfg, func(c *vclock.Clock, v *Volume) {
		prefill := make([]byte, v.ZoneSectors()*int64(v.SectorSize()))
		if err := v.Write(0, prefill, 0); err != nil {
			b.Fatal(err)
		}
		buf := make([]byte, nSectors*int64(v.SectorSize()))
		n := v.ZoneSectors() - nSectors
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := v.Read(int64(i)%n, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkSubmitReadCopy4Unit(b *testing.B) { benchSeqReadCopy(b, DefaultConfig(), 64) }

// benchSeqWriteRecorder is benchSeqWrite with the full observation rig
// attached — registry, (disabled) tracer, flight recorder as span
// observer — for the recorder-overhead alloc guard.
func benchSeqWriteRecorder(b *testing.B, nSectors int64) {
	c := vclock.New()
	c.Run(func() {
		cfg := zns.DefaultConfig()
		cfg.DiscardData = true
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, cfg)
		}
		reg := obs.NewRegistry()
		tr := obs.NewTracer(c, obs.Config{SinkCapacity: 64}) // disabled, like the baseline
		vcfg := DefaultConfig()
		vcfg.Metrics = reg
		vcfg.Tracer = tr
		v, err := Create(c, devs, vcfg)
		if err != nil {
			b.Fatal(err)
		}
		rec := flight.New(flight.Config{
			Clock: c, Registry: reg, Label: "guard",
			Degraded: func() bool { return v.Degraded() >= 0 },
		})
		tr.SetObserver(rec)
		buf := make([]byte, nSectors*int64(v.SectorSize()))
		b.SetBytes(int64(len(buf)))
		b.ReportAllocs()
		b.ResetTimer()
		var lba int64
		for i := 0; i < b.N; i++ {
			if lba+nSectors > v.NumSectors() {
				b.StopTimer()
				for z := 0; z < v.NumZones(); z++ {
					v.ResetZone(z)
				}
				lba = 0
				b.StartTimer()
			}
			if err := v.Write(lba, buf, 0); err != nil {
				b.Fatal(err)
			}
			lba += nSectors
		}
	})
}
