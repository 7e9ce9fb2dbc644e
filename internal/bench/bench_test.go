package bench

import (
	"bytes"
	"io"
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

func TestRawDeviceCalibration(t *testing.T) {
	// The raw-device model must hit the paper's §6.1 numbers within a
	// few percent: ZNS ~1052 MiB/s write, ~3265 MiB/s read, slightly
	// below the conventional device.
	var buf bytes.Buffer
	if err := Run("raw", &buf, true); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "zns") || !strings.Contains(out, "conventional") {
		t.Fatalf("unexpected raw report:\n%s", out)
	}
}

func TestFig12ShapeTTRScales(t *testing.T) {
	// The headline Figure 12 property: RAIZN's TTR at 100% fill must
	// exceed its TTR at 25% fill, while mdraid's stays flat.
	var buf bytes.Buffer
	if err := Run("fig12", &buf, true); err != nil {
		t.Fatal(err)
	}
	// Parsed loosely: the quick table has two rows (25%, 100%).
	out := buf.String()
	if !strings.Contains(out, "25%") || !strings.Contains(out, "100%") {
		t.Fatalf("fig12 report missing fill rows:\n%s", out)
	}
}
