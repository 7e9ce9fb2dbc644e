package obs

import "testing"

func TestLabeledName(t *testing.T) {
	cases := []struct {
		base string
		kv   []string
		want string
	}{
		{"raizn_writes_total", nil, "raizn_writes_total"},
		{"raizn_writes_total", []string{"array", "a0"},
			`raizn_writes_total{array="a0"}`},
		// Keys render in sorted order regardless of argument order.
		{"volmgr_shed_total", []string{"volume", "v", "tenant", "t1"},
			`volmgr_shed_total{tenant="t1",volume="v"}`},
		{"volmgr_shed_total", []string{"tenant", "t1", "volume", "v"},
			`volmgr_shed_total{tenant="t1",volume="v"}`},
		// Empty values drop their pair; all-empty falls back to the bare
		// name so single-instance registrations keep byte-stable series.
		{"raizn_writes_total", []string{"array", ""}, "raizn_writes_total"},
		{"x", []string{"a", "", "b", "2"}, `x{b="2"}`},
		// Label values are escaped per the text exposition format.
		{"x", []string{"k", `a"b` + "\n" + `c\d`}, `x{k="a\"b\nc\\d"}`},
	}
	for _, c := range cases {
		if got := LabeledName(c.base, c.kv...); got != c.want {
			t.Errorf("LabeledName(%q, %v) = %q, want %q", c.base, c.kv, got, c.want)
		}
	}
}

func TestLabeledNameOddPairsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("odd kv list did not panic")
		}
	}()
	LabeledName("x", "key_without_value")
}

// TestLabeledCountersDistinct is the collision regression test: two
// components registering the same base name with different labels must
// get independent counters, not a silently shared one.
func TestLabeledCountersDistinct(t *testing.T) {
	r := NewRegistry()
	c0 := r.Counter(LabeledName("raizn_writes_total", "array", "a0"))
	c1 := r.Counter(LabeledName("raizn_writes_total", "array", "a1"))
	if c0 == c1 {
		t.Fatalf("differently-labeled series share one counter")
	}
	c0.Add(5)
	c1.Add(9)
	s := r.Snapshot()
	if got := s.Counters[`raizn_writes_total{array="a0"}`]; got != 5 {
		t.Errorf("a0 = %d, want 5", got)
	}
	if got := s.Counters[`raizn_writes_total{array="a1"}`]; got != 9 {
		t.Errorf("a1 = %d, want 9", got)
	}
}

func TestEscapeHelpers(t *testing.T) {
	if got := escapeLabelValue("say \"hi\"\\\n"); got != `say \"hi\"\\\n` {
		t.Fatalf("escapeLabelValue = %q", got)
	}
	if got := escapeLabelValue("plain"); got != "plain" {
		t.Fatalf("escapeLabelValue = %q", got)
	}
}
