package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadReportV1RoundTrip(t *testing.T) {
	rep := &Report{Schema: SchemaV1, Experiment: "fig10", Cells: []Cell{
		{Name: "phase2/raizn", Metrics: map[string]float64{"mean_mib_s": 2800}},
	}}
	p := filepath.Join(t.TempDir(), "r.json")
	if err := rep.WriteFile(p); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(p)
	if err != nil {
		t.Fatal(err)
	}
	if back.Experiment != "fig10" || back.cell("phase2/raizn").Metrics["mean_mib_s"] != 2800 {
		t.Fatalf("round trip = %+v", back)
	}
	if _, err := LoadReport(writeTemp(t, "bad.json", `{"schema":"other/v9"}`)); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if _, err := LoadReport(writeTemp(t, "none.json", `{"experiment":"writepath"}`)); err == nil {
		t.Fatal("file without a schema accepted")
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := &Report{Schema: SchemaV1, Experiment: "x", Cells: []Cell{
		{Name: "a", Metrics: map[string]float64{
			"tput_mib_s":   100, // higher is better
			"lat_p99_us":   100, // lower is better
			"odd_quantity": 100, // unknown direction: never flagged
		}},
	}}
	cur := &Report{Schema: SchemaV1, Experiment: "x", Cells: []Cell{
		{Name: "a", Metrics: map[string]float64{
			"tput_mib_s":   80,  // -20%: regression
			"lat_p99_us":   120, // +20%: regression
			"odd_quantity": 10,  // -90% but unknown direction
		}},
	}}
	var sb strings.Builder
	if got := Compare(&sb, old, cur, 5); got != 2 {
		t.Fatalf("regressions = %d, want 2\n%s", got, sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION") {
		t.Fatalf("no REGRESSION marker:\n%s", sb.String())
	}

	// Within threshold: clean.
	sb.Reset()
	if got := Compare(&sb, old, old, 5); got != 0 {
		t.Fatalf("self-compare regressions = %d\n%s", got, sb.String())
	}
	if !strings.Contains(sb.String(), "no regressions past threshold") {
		t.Fatalf("missing clean verdict:\n%s", sb.String())
	}

	// Improvements in the good direction are not regressions.
	better := &Report{Schema: SchemaV1, Experiment: "x", Cells: []Cell{
		{Name: "a", Metrics: map[string]float64{
			"tput_mib_s": 200, "lat_p99_us": 50, "odd_quantity": 100,
		}},
	}}
	sb.Reset()
	if got := Compare(&sb, old, better, 5); got != 0 {
		t.Fatalf("improvement flagged as regression:\n%s", sb.String())
	}
}

func TestCompareMissingCells(t *testing.T) {
	old := &Report{Cells: []Cell{{Name: "gone", Metrics: map[string]float64{"m_mib_s": 1}}}}
	cur := &Report{Cells: []Cell{{Name: "fresh", Metrics: map[string]float64{"m_mib_s": 1}}}}
	var sb strings.Builder
	if got := Compare(&sb, old, cur, 5); got != 0 {
		t.Fatalf("missing cells counted as regressions: %d", got)
	}
	if !strings.Contains(sb.String(), `cell "gone" missing`) ||
		!strings.Contains(sb.String(), `cell "fresh" only in the new report`) {
		t.Fatalf("missing-cell notes absent:\n%s", sb.String())
	}
}
