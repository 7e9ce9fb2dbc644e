package obs

import (
	"sort"
	"strings"
)

// Metric labels. The registry stays a flat name -> metric map; a labeled
// series is just a name of the form `base{key="value",...}`, built with
// LabeledName. Components that may be instantiated more than once against
// a shared registry (multiple RAIZN arrays under a volume manager,
// per-tenant engine counters) label their series so same-name metrics no
// longer collide, while single-instance registrations keep their bare
// names.

// LabeledName renders base plus key/value label pairs in the Prometheus
// text exposition syntax: LabeledName("raizn_zone_resets_total", "array",
// "a0") -> `raizn_zone_resets_total{array="a0"}`. Pairs are emitted in
// sorted key order so the same label set always produces the same series
// name. An empty kv list (or all-empty values) returns base unchanged.
func LabeledName(base string, kv ...string) string {
	if len(kv)%2 != 0 {
		panic("obs: LabeledName requires key/value pairs")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		if kv[i+1] == "" {
			continue
		}
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	if len(pairs) == 0 {
		return base
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(base)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the text exposition
// format: backslash, newline, and double quote.
func escapeLabelValue(s string) string {
	return labelEscaper.Replace(s)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
