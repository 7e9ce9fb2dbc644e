package chaos

import (
	"reflect"
	"testing"

	"raizn/internal/obs"
	"raizn/internal/raizn"
	"raizn/internal/vclock"
	"raizn/internal/zns"
)

// TestCheckArrayCrashWatermarkRules drives the write-pointer rules from
// the array side: two zones each hold 40 FUA-written sectors at the cut.
// True watermarks pass, a Durable one sector too high is lost durable
// data, and a Submitted one sector too low is phantom data.
func TestCheckArrayCrashWatermarkRules(t *testing.T) {
	devCfg := zns.DefaultConfig()
	devCfg.NumZones = 8
	devCfg.ZoneSize = 160
	devCfg.ZoneCap = 128
	devCfg.MaxOpenZones = 8
	devCfg.MaxActiveZones = 10
	clk := vclock.New()
	jrn := obs.NewJournal(clk, obs.JournalConfig{Capacity: 1 << 12})
	jrn.Enable()
	devs := make([]*zns.Device, 3)
	clk.Run(func() {
		for i := range devs {
			devs[i] = zns.NewDevice(clk, devCfg)
		}
		cfg := raizn.DefaultConfig()
		cfg.Journal = jrn
		vol, err := raizn.Create(clk, devs, cfg)
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		buf := make([]byte, 40*vol.SectorSize())
		for z := int64(0); z < 2; z++ {
			if err := vol.Write(z*vol.ZoneSectors(), buf, zns.FUA); err != nil {
				t.Fatalf("Write zone %d: %v", z, err)
			}
		}
	})

	cases := []struct {
		name  string
		marks map[int]ZoneWatermarks
		want  []string
	}{
		{"true", map[int]ZoneWatermarks{0: {Durable: 40, Submitted: 40}, 1: {Durable: 40, Submitted: 40}}, nil},
		{"overstated-durable", map[int]ZoneWatermarks{0: {Durable: 41, Submitted: 41}}, []string{"lost-durable-data"}},
		{"understated-submitted", map[int]ZoneWatermarks{1: {Durable: 39, Submitted: 39}}, []string{"phantom-data"}},
	}
	for _, tc := range cases {
		clones, cclk := SnapshotArray(devs, -1)
		vios, vol := CheckArrayCrash(ArrayCrash{
			Clk: cclk, Clones: clones, Events: jrn.Events(), Dropped: jrn.Dropped(),
			Config: raizn.DefaultConfig(),
		}, tc.marks)
		if vol == nil {
			t.Fatalf("%s: mount failed: %v", tc.name, vios)
		}
		var got []string
		for _, v := range vios {
			got = append(got, v.Rule)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: rules %v, want %v (%v)", tc.name, got, tc.want, vios)
		}
	}
}
