package chaos

import (
	"strings"
	"testing"
)

// TestCrashForensicsDeterministic is the acceptance property for the
// incident pipeline: the report of the black box captured at a chaos
// crash is byte-identical across two same-seed runs at any crossing, the
// first one included, and names the crash and its replay seed. Late in
// the schedule it also carries the three kinds of evidence — at least
// one span, one journal event, one metric delta.
func TestCrashForensicsDeterministic(t *testing.T) {
	s := Lookup("composed")
	census, err := Census(s, 1)
	if err != nil {
		t.Fatalf("Census: %v", err)
	}
	// Late in the schedule the composed scenario's injected device
	// failure has pushed spans onto the degraded path, where tail
	// sampling always keeps them.
	late := len(census) * 3 / 4
	for _, idx := range []int{0, late} {
		r1, err := CrashForensics(s, idx, VarFlushed, Options{Seed: 1})
		if err != nil {
			t.Fatalf("CrashForensics(%d): %v", idx, err)
		}
		r2, err := CrashForensics(s, idx, VarFlushed, Options{Seed: 1})
		if err != nil {
			t.Fatalf("CrashForensics(%d) (second run): %v", idx, err)
		}
		if r1 != r2 {
			t.Fatalf("same-seed forensics reports at crossing %d differ:\n%s\n---\n%s", idx, r1, r2)
		}
		want := []string{
			"incident report",
			"device-health",        // trigger kind for a bare crash capture
			"simulated power loss", // trigger detail
			"replay: v1:composed:", // replay seed for the crash run
		}
		if idx == late {
			want = append(want,
				"span",          // >=1 span in the merged timeline
				"event",         // >=1 journal event
				"metric deltas", // >=1 metric delta section
			)
			// The timeline header counts its evidence; both counts must
			// be non-zero (an empty timeline would still satisfy the
			// plain substring checks).
			if strings.Contains(r1, "(0 spans") || strings.Contains(r1, ", 0 journal events)") {
				t.Errorf("forensics report has an empty timeline:\n%s", r1)
			}
		}
		for _, w := range want {
			if !strings.Contains(r1, w) {
				t.Errorf("forensics report at crossing %d missing %q:\n%s", idx, w, r1)
			}
		}
	}
}

// TestCrashForensicsRangeCheck: out-of-range crossings fail cleanly.
func TestCrashForensicsRangeCheck(t *testing.T) {
	s := Lookup("stripe-reset")
	if _, err := CrashForensics(s, 1<<20, VarFlushed, Options{Seed: 1}); err == nil {
		t.Fatal("CrashForensics accepted an out-of-range crossing")
	}
	if _, err := CrashForensics(s, -1, VarFlushed, Options{Seed: 1}); err == nil {
		t.Fatal("CrashForensics accepted a negative crossing")
	}
}
