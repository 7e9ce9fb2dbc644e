package zns

import (
	"bytes"
	"testing"

	"raizn/internal/vclock"
)

func extTestConfig() Config {
	cfg := testConfig()
	cfg.ZRWASectors = 8
	return cfg
}

func TestZRWADisabledByDefault(t *testing.T) {
	run(t, testConfig(), func(c *vclock.Clock, d *Device) {
		if err := d.Write(0, pattern(testConfig(), 1, 1), ZRWA).Wait(); err != ErrNoZRWA {
			t.Errorf("error = %v, want ErrNoZRWA", err)
		}
	})
}

func TestZRWAOverwriteWithinWindow(t *testing.T) {
	cfg := extTestConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, 6, 1), 0)
		// Overwrite the last 4 sectors (inside the 8-sector window).
		if err := d.Write(2, pattern(cfg, 4, 9), ZRWA).Wait(); err != nil {
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
		if err := d.Write(2, pattern(cfg, 5, 7), ZRWA).Wait(); err != nil {
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
		if err := d.Write(2, pattern(cfg, 2, 9), ZRWA).Wait(); err != ErrOutsideZRWA {
			t.Errorf("below-window overwrite error = %v", err)
		}
		if err := d.Write(13, pattern(cfg, 1, 9), ZRWA).Wait(); err != ErrOutsideZRWA {
			t.Errorf("gap write error = %v", err)
		}
	})
}

func TestZRWAFullZoneRejected(t *testing.T) {
	cfg := extTestConfig()
	run(t, cfg, func(c *vclock.Clock, d *Device) {
		mustWrite(t, d, 0, pattern(cfg, int(cfg.ZoneCap), 1), 0)
		if err := d.Write(cfg.ZoneCap-2, pattern(cfg, 1, 9), ZRWA).Wait(); err != ErrZoneFull {
			t.Errorf("full-zone ZRWA error = %v", err)
		}
	})
}
