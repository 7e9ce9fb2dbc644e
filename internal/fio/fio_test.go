package fio

import (
	"testing"
	"time"

	"raizn/internal/blockdev"
	"raizn/internal/mdraid"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

func znsCfg() zns.Config {
	cfg := zns.DefaultConfig()
	cfg.NumZones = 8
	cfg.ZoneSize = 160
	cfg.ZoneCap = 128
	cfg.MaxOpenZones = 8
	cfg.MaxActiveZones = 10
	return cfg
}

func TestSeqWriteThenReadOnRaizn(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, znsCfg())
		}
		v, err := raizn.Create(c, devs, raizn.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		tgt := RaiznTarget{V: v}
		res := Run(c, tgt, []Job{{
			Pattern:      SeqWrite,
			BlockSectors: 16,
			QueueDepth:   4,
			Size:         v.NumSectors(),
		}}, Options{})
		wantBytes := v.NumSectors() * int64(v.SectorSize())
		if res.Bytes != wantBytes {
			t.Errorf("wrote %d bytes, want %d", res.Bytes, wantBytes)
		}
		if res.Throughput <= 0 {
			t.Error("zero throughput")
		}

		res = Run(c, tgt, []Job{{
			Pattern:      SeqRead,
			BlockSectors: 16,
			QueueDepth:   8,
			Size:         v.NumSectors(),
		}}, Options{})
		if res.Bytes != wantBytes {
			t.Errorf("read %d bytes, want %d", res.Bytes, wantBytes)
		}
		if res.Hist.Count() != uint64(res.Ops) || res.Ops == 0 {
			t.Errorf("histogram count %d vs ops %d", res.Hist.Count(), res.Ops)
		}
	})
}

func TestMultiJobOffsets(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, znsCfg())
		}
		v, err := raizn.Create(c, devs, raizn.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// 4 jobs writing 4 different zones concurrently.
		zs := v.ZoneSectors()
		var jobs []Job
		for j := int64(0); j < 4; j++ {
			jobs = append(jobs, Job{
				Pattern: SeqWrite, BlockSectors: 16, QueueDepth: 4,
				Offset: j * zs, Size: zs, Seed: j,
			})
		}
		res := Run(c, RaiznTarget{V: v}, jobs, Options{})
		if res.Bytes != 4*zs*int64(v.SectorSize()) {
			t.Errorf("bytes = %d", res.Bytes)
		}
	})
}

func TestRandReadOnMdraid(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		bcfg := blockdev.DefaultConfig()
		bcfg.NumSectors = 2048
		bcfg.PagesPerBlock = 64
		devs := make([]*blockdev.Device, 5)
		for i := range devs {
			devs[i] = blockdev.NewDevice(c, bcfg)
		}
		v, err := mdraid.New(c, devs, 16)
		if err != nil {
			t.Fatal(err)
		}
		tgt := MdraidTarget{V: v}
		Run(c, tgt, []Job{{Pattern: SeqWrite, BlockSectors: 64, QueueDepth: 8}}, Options{})
		res := Run(c, tgt, []Job{{
			Pattern: RandRead, BlockSectors: 2, QueueDepth: 16,
			TotalBytes: 1 << 20,
		}}, Options{})
		if res.Bytes < 1<<20 {
			t.Errorf("rand read bytes = %d", res.Bytes)
		}
	})
}

func TestDurationBoundedRun(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := blockdev.NewDevice(c, blockdev.DefaultConfig())
		res := Run(c, BlockTarget{D: d}, []Job{{
			Pattern: RandWrite, BlockSectors: 1, QueueDepth: 4,
			Duration: 50 * time.Millisecond, Seed: 9,
		}}, Options{SampleInterval: 10 * time.Millisecond})
		if res.Elapsed < 50*time.Millisecond {
			t.Errorf("elapsed = %v", res.Elapsed)
		}
		if len(res.Series.Samples()) < 4 {
			t.Errorf("samples = %d", len(res.Series.Samples()))
		}
	})
}

func TestZNSFlatTargetSplitsAtZones(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, znsCfg())
		tgt := ZNSFlatTarget{D: d}
		// One sequential pass over the whole flat space with a block
		// size that does not divide the zone capacity.
		res := Run(c, tgt, []Job{{Pattern: SeqWrite, BlockSectors: 24, QueueDepth: 2}}, Options{})
		want := (tgt.NumSectors() / 24) * 24 * int64(tgt.SectorSize())
		if res.Bytes != want {
			t.Errorf("bytes = %d, want %d", res.Bytes, want)
		}
	})
}

func TestZNSFlatResetAndRewrite(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		d := zns.NewDevice(c, znsCfg())
		tgt := ZNSFlatTarget{D: d}
		Run(c, tgt, []Job{{Pattern: SeqWrite, BlockSectors: 16, QueueDepth: 1, Size: tgt.ZoneSectors()}}, Options{})
		if err := tgt.ResetZone(0); err != nil {
			t.Fatal(err)
		}
		res := Run(c, tgt, []Job{{Pattern: SeqWrite, BlockSectors: 16, QueueDepth: 1, Size: tgt.ZoneSectors()}}, Options{})
		if res.Bytes == 0 {
			t.Error("rewrite after reset failed")
		}
	})
}

// TestAdapterSurfaces exercises every Target adapter method once.
func TestAdapterSurfaces(t *testing.T) {
	c := vclock.New()
	c.Run(func() {
		// RAIZN adapter.
		devs := make([]*zns.Device, 5)
		for i := range devs {
			devs[i] = zns.NewDevice(c, znsCfg())
		}
		rv, err := raizn.Create(c, devs, raizn.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		rt := RaiznTarget{V: rv}
		if rt.NumSectors() != rv.NumSectors() || rt.SectorSize() != 4096 {
			t.Error("raizn adapter geometry")
		}
		if rt.NumZones() != rv.NumZones() || rt.ZoneSectors() != rv.ZoneSectors() {
			t.Error("raizn adapter zones")
		}
		if err := rt.SubmitWrite(0, make([]byte, 4096)).Wait(); err != nil {
			t.Error(err)
		}
		buf := make([]byte, 4096)
		if err := rt.SubmitRead(0, buf).Wait(); err != nil {
			t.Error(err)
		}
		if err := rt.Flush(); err != nil {
			t.Error(err)
		}
		if err := rt.ResetZone(0); err != nil {
			t.Error(err)
		}

		// mdraid adapter.
		bcfg := blockdev.DefaultConfig()
		bcfg.NumSectors = 2048
		bcfg.PagesPerBlock = 64
		bdevs := make([]*blockdev.Device, 5)
		for i := range bdevs {
			bdevs[i] = blockdev.NewDevice(c, bcfg)
		}
		mv, err := mdraid.New(c, bdevs, 16)
		if err != nil {
			t.Fatal(err)
		}
		mt := MdraidTarget{V: mv}
		if mt.NumSectors() != mv.NumSectors() || mt.SectorSize() != 4096 {
			t.Error("mdraid adapter geometry")
		}
		if err := mt.SubmitWrite(0, make([]byte, 4096)).Wait(); err != nil {
			t.Error(err)
		}
		if err := mt.SubmitRead(0, buf).Wait(); err != nil {
			t.Error(err)
		}
		if err := mt.Flush(); err != nil {
			t.Error(err)
		}

		// Raw device adapters.
		zt := ZNSFlatTarget{D: zns.NewDevice(c, znsCfg())}
		if err := zt.SubmitWrite(0, make([]byte, 4096)).Wait(); err != nil {
			t.Error(err)
		}
		if err := zt.SubmitRead(0, buf).Wait(); err != nil {
			t.Error(err)
		}
		if err := zt.Flush(); err != nil {
			t.Error(err)
		}
		if zt.NumZones() != 8 {
			t.Errorf("flat zns zones = %d", zt.NumZones())
		}
		bt := BlockTarget{D: blockdev.NewDevice(c, bcfg)}
		if err := bt.SubmitWrite(5, make([]byte, 4096)).Wait(); err != nil {
			t.Error(err)
		}
		if err := bt.SubmitRead(5, buf).Wait(); err != nil {
			t.Error(err)
		}
		if err := bt.Flush(); err != nil {
			t.Error(err)
		}
		if bt.NumSectors() != 2048 || bt.SectorSize() != 4096 {
			t.Error("block adapter geometry")
		}
		// Pattern names for reports.
		for p, want := range map[Pattern]string{SeqWrite: "write", SeqRead: "read", RandRead: "randread", RandWrite: "randwrite"} {
			if p.String() != want {
				t.Errorf("Pattern %d = %s", p, p.String())
			}
		}
	})
}
