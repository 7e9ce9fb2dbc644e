package zns

import (
	"bytes"
	"testing"

	"raizn/internal/vclock"
)

func extTestConfig() Config {
	cfg := testConfig()
	cfg.ZRWASectors = 8
	cfg.MetaBytes = 64
	return cfg
}

func TestZRWADisabledByDefault(t *testing.T) {
	run(t, testConfig(), func(c *vclock.Clock, d *Device) {
		if err := d.WriteZRWA(0, pattern(testConfig(), 1, 1), 0).Wait(); err != ErrNoZRWA {
			t.Errorf("error = %v, want ErrNoZRWA", err)
		}
		if _, err := d.ReadBlockMeta(0); err != ErrNoMeta {
			t.Errorf("meta error = %v, want ErrNoMeta", err)
		}
	})
}

func TestZRWAOverwriteWithinWindow(t *testing.T) {
	cfg := extTestConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 6, 1), 0)
		// Overwrite the last 4 sectors (inside the 8-sector window).
		if err := d.WriteZRWA(2, pattern(cfg, 4, 9), 0).Wait(); err != nil {
			t.Fatal(err)
		}
		got := mustRead(t, d, 0, 6)
		want := append(pattern(cfg, 6, 1)[:2*cfg.SectorSize], pattern(cfg, 4, 9)...)
		if !bytes.Equal(got, want) {
			t.Error("ZRWA overwrite content mismatch")
		}
		if wp := d.Zone(0).WP; wp != 6 {
			t.Errorf("WP = %d, want unchanged 6", wp)
		}
	})
}

func TestZRWAExtendsWritePointer(t *testing.T) {
	cfg := extTestConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 4, 1), 0)
		// Overwrite 2 and extend by 3.
		if err := d.WriteZRWA(2, pattern(cfg, 5, 7), 0).Wait(); err != nil {
			t.Fatal(err)
		}
		if wp := d.Zone(0).WP; wp != 7 {
			t.Errorf("WP = %d, want 7", wp)
		}
	})
}

func TestZRWARejectsOutsideWindow(t *testing.T) {
	cfg := extTestConfig() // window = 8
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 12, 1), 0)
		if err := d.WriteZRWA(2, pattern(cfg, 2, 9), 0).Wait(); err != ErrOutsideZRWA {
			t.Errorf("below-window overwrite error = %v", err)
		}
		if err := d.WriteZRWA(13, pattern(cfg, 1, 9), 0).Wait(); err != ErrOutsideZRWA {
			t.Errorf("gap write error = %v", err)
		}
	})
}

func TestZRWAFullZoneRejected(t *testing.T) {
	cfg := extTestConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, int(cfg.ZoneCap), 1), 0)
		if err := d.WriteZRWA(cfg.ZoneCap-2, pattern(cfg, 1, 9), 0).Wait(); err != ErrZoneFull {
			t.Errorf("full-zone ZRWA error = %v", err)
		}
	})
}

func TestBlockMetaRoundTrip(t *testing.T) {
	cfg := extTestConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		meta := []byte("record-header-0123456789")
		sector, fut := d.AppendMeta(0, pattern(cfg, 3, 1), meta, 0)
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		got, err := d.ReadBlockMeta(sector)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, meta) {
			t.Errorf("meta = %q, want %q", got, meta)
		}
		// Sectors without metadata return nil.
		if m, err := d.ReadBlockMeta(sector + 1); err != nil || m != nil {
			t.Errorf("meta of plain sector = %q, %v", m, err)
		}
	})
}

func TestBlockMetaTooLarge(t *testing.T) {
	cfg := extTestConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		_, fut := d.AppendMeta(0, pattern(cfg, 1, 1), make([]byte, 65), 0)
		if err := fut.Wait(); err != ErrMetaTooLarge {
			t.Errorf("error = %v, want ErrMetaTooLarge", err)
		}
	})
}

func TestBlockMetaClearedByReset(t *testing.T) {
	cfg := extTestConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		sector, fut := d.AppendMeta(2, pattern(cfg, 1, 1), []byte("hdr"), 0)
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		if err := d.ResetZone(2).Wait(); err != nil {
			t.Fatal(err)
		}
		if m, _ := d.ReadBlockMeta(sector); m != nil {
			t.Error("block metadata survived zone reset")
		}
	})
}

// TestPowerLossDropsBlockMetaWithData: per-block metadata shares the fate
// of its sector. A header that outlived its lost block would be read back
// against whatever is appended at that sector next.
func TestPowerLossDropsBlockMetaWithData(t *testing.T) {
	cfg := extTestConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		kept, fut := d.AppendMeta(0, pattern(cfg, 1, 1), []byte("kept"), FUA)
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		lost, fut := d.AppendMeta(0, pattern(cfg, 1, 2), []byte("lost"), 0)
		if err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
		d.PowerLoss(nil)
		if m, _ := d.ReadBlockMeta(kept); string(m) != "kept" {
			t.Errorf("metadata of the persisted block = %q, want %q", m, "kept")
		}
		if m, _ := d.ReadBlockMeta(lost); m != nil {
			t.Errorf("metadata of the lost block survived: %q", m)
		}
	})
}
