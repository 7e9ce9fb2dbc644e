package bench

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"ablate-journal", "ablate-wal", "fig10", "fig11", "fig12", "fig13", "fig14", "fig7", "fig8", "fig9", "raw", "scrub", "serve", "table1", "waf"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Name != want[i] {
			t.Errorf("experiment %d = %s, want %s", i, e.Name, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.Name)
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := Run("nope", io.Discard, true); err == nil {
		t.Error("expected error for unknown experiment")
	}
}

// TestQuickExperimentsProduceOutput smoke-runs every experiment at quick
// scale and sanity-checks that each emits a report.
func TestQuickExperimentsProduceOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiments still take seconds each")
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := Run(e.Name, &buf, true); err != nil {
				t.Fatalf("run: %v", err)
			}
			out := buf.String()
			if len(out) < 100 {
				t.Errorf("suspiciously short report:\n%s", out)
			}
			if !strings.Contains(out, e.Name) {
				t.Errorf("report missing experiment banner")
			}
		})
	}
}

// TestRawDeviceCalibration checks the raw-device model against the
// paper's §6.1 numbers: ZNS within 5 % of 1052 MiB/s write and 3265 MiB/s
// read, each below the conventional device.
func TestRawDeviceCalibration(t *testing.T) {
	z, c := measureRaw(true)
	near := func(what string, got, paper float64) {
		if math.Abs(got/paper-1) > 0.05 {
			t.Errorf("zns %s %.1f MiB/s, want within 5%% of the paper's %.0f", what, got, paper)
		}
	}
	near("write", z.write, 1052)
	near("read", z.read, 3265)
	if z.write >= c.write || z.read >= c.read {
		t.Errorf("zns write/read %.1f/%.1f MiB/s, want both below conventional %.1f/%.1f", z.write, z.read, c.write, c.read)
	}
}

// TestFig12ShapeTTRScales checks Figure 12's headline property: RAIZN's
// time to repair grows with fill, mdraid's full resync does not.
func TestFig12ShapeTTRScales(t *testing.T) {
	sc := scaleFor(true)
	rz25, md25 := measureTTR(sc, 0.25)
	rz100, md100 := measureTTR(sc, 1.0)
	if rz100.ttr <= rz25.ttr {
		t.Errorf("raizn TTR %v at 100%% fill, want above %v at 25%%", rz100.ttr, rz25.ttr)
	}
	if md100.ttr != md25.ttr {
		t.Errorf("mdraid TTR %v at 100%% fill, want equal to %v at 25%%", md100.ttr, md25.ttr)
	}
}
