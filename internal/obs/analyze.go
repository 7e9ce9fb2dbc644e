package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"raizn/internal/stats"
)

// Breakdown decomposes a set of root spans into per-phase latency
// histograms: for each host op its end-to-end total plus host-side
// phases (plan/compute/submit and the residual device wait), and for
// each device op the queue/media/completion split the device models
// mark. This is the critical-path view §6 of the paper derives by
// hand-instrumenting fio runs.
type Breakdown struct {
	names []string
	hists map[string]*stats.Histogram
}

func (b *Breakdown) observe(name string, d time.Duration) {
	if d < 0 {
		return
	}
	h, ok := b.hists[name]
	if !ok {
		h = stats.NewHistogram()
		b.hists[name] = h
		b.names = append(b.names, name)
	}
	h.Record(d)
}

// Hist returns the named phase histogram, or nil.
func (b *Breakdown) Hist(name string) *stats.Histogram { return b.hists[name] }

// Analyze builds the per-phase breakdown from finished root spans.
func Analyze(roots []*Span) *Breakdown {
	b := &Breakdown{hists: make(map[string]*stats.Histogram)}
	for _, s := range roots {
		analyzeSpan(b, s)
	}
	sort.Strings(b.names)
	return b
}

func analyzeSpan(b *Breakdown, s *Span) {
	end, ended := s.EndTime()
	if !ended {
		return
	}
	op := s.Op.String()
	b.observe(op+"/total", end-s.start)
	switch s.Op {
	case OpWrite, OpScrub:
		// Three-phase pipeline marks; each is the phase's END time.
		prev := s.start
		last := prev
		for _, p := range []Phase{PhasePlan, PhaseCompute, PhaseSubmit} {
			if t, ok := s.MarkTime(p); ok {
				b.observe(op+"/"+p.String(), t-prev)
				prev, last = t, t
			}
		}
		b.observe(op+"/wait", end-last)
	case OpDevWrite, OpDevRead, OpDevReset, OpDevFinish, OpDevFlush, OpMDAppend:
		q, qok := s.MarkTime(PhaseQueue)
		m, mok := s.MarkTime(PhaseMedia)
		if qok {
			b.observe(op+"/queue", q-s.start)
		}
		if qok && mok {
			b.observe(op+"/media", m-q)
			b.observe(op+"/complete", end-m)
		}
	}
	for _, c := range s.Children() {
		analyzeSpan(b, c)
	}
}

// Write renders the breakdown as a fixed-width table.
func (b *Breakdown) Write(w io.Writer) {
	fmt.Fprintf(w, "%-22s %8s %12s %12s %12s %12s\n",
		"phase", "count", "mean", "p50", "p99", "max")
	for _, name := range b.names {
		h := b.hists[name]
		fmt.Fprintf(w, "%-22s %8d %12v %12v %12v %12v\n",
			name, h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.Max())
	}
}

// DepthPoint is one step of a queue-depth timeline.
type DepthPoint struct {
	T     time.Duration
	Depth int
}

// QueueDepthTimeline walks every device sub-span under the given roots
// and returns the number of device commands in flight over time
// (+1 at each sub-span's start, -1 at its end), in time order.
func QueueDepthTimeline(roots []*Span) []DepthPoint {
	type event struct {
		t time.Duration
		d int
	}
	var evs []event
	var collect func(s *Span)
	collect = func(s *Span) {
		switch s.Op {
		case OpDevWrite, OpDevRead, OpDevReset, OpDevFinish, OpDevFlush, OpMDAppend:
			if end, ended := s.EndTime(); ended {
				evs = append(evs, event{s.start, +1}, event{end, -1})
			}
		}
		for _, c := range s.Children() {
			collect(c)
		}
	}
	for _, s := range roots {
		collect(s)
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].t != evs[j].t {
			return evs[i].t < evs[j].t
		}
		return evs[i].d < evs[j].d // completions before submissions at a tie
	})
	var out []DepthPoint
	depth := 0
	for _, e := range evs {
		depth += e.d
		if n := len(out); n > 0 && out[n-1].T == e.t {
			out[n-1].Depth = depth
		} else {
			out = append(out, DepthPoint{e.t, depth})
		}
	}
	return out
}

// WriteTimeline renders the queue-depth timeline as a coarse ASCII
// chart: the span of virtual time is cut into buckets and each row
// shows the peak depth within its bucket.
func WriteTimeline(w io.Writer, pts []DepthPoint, buckets int) {
	if len(pts) == 0 {
		fmt.Fprintln(w, "(no device IO recorded)")
		return
	}
	if buckets <= 0 {
		buckets = 40
	}
	t0, t1 := pts[0].T, pts[len(pts)-1].T
	if t1 <= t0 {
		t1 = t0 + 1
	}
	width := (t1 - t0 + time.Duration(buckets) - 1) / time.Duration(buckets)
	peak := make([]int, buckets)
	maxDepth := 0
	for _, p := range pts {
		i := int((p.T - t0) / width)
		if i >= buckets {
			i = buckets - 1
		}
		if p.Depth > peak[i] {
			peak[i] = p.Depth
		}
		if p.Depth > maxDepth {
			maxDepth = p.Depth
		}
	}
	fmt.Fprintf(w, "queue depth over %v..%v (peak %d, bucket %v)\n", t0, t1, maxDepth, width)
	for i, d := range peak {
		bar := strings.Repeat("#", d)
		fmt.Fprintf(w, "%12v |%s %d\n", t0+time.Duration(i)*width, bar, d)
	}
}

// FormatSpanTree renders a span and its children as an indented tree
// with times relative to the root's start.
func FormatSpanTree(s *Span) string {
	var sb strings.Builder
	writeSpanTree(&sb, s, s.start, 0)
	return sb.String()
}

func writeSpanTree(sb *strings.Builder, s *Span, t0 time.Duration, depth int) {
	sb.WriteString(strings.Repeat("  ", depth))
	end, ended := s.EndTime()
	fmt.Fprintf(sb, "%s", s.Op)
	if s.Dev >= 0 {
		fmt.Fprintf(sb, " dev=%d", s.Dev)
	}
	fmt.Fprintf(sb, " lba=%d bytes=%d", s.LBA, s.Bytes)
	if n := s.Segs(); n > 1 {
		fmt.Fprintf(sb, " segs=%d", n)
	}
	fmt.Fprintf(sb, " @%v", s.start-t0)
	if ended {
		fmt.Fprintf(sb, " +%v", end-s.start)
	} else {
		sb.WriteString(" (unfinished)")
	}
	for p := Phase(0); p < NumPhases; p++ {
		if t, ok := s.MarkTime(p); ok {
			fmt.Fprintf(sb, " %s@%v", p, t-t0)
		}
	}
	if err := s.Err(); err != nil {
		fmt.Fprintf(sb, " err=%v", err)
	}
	sb.WriteByte('\n')
	for _, c := range s.Children() {
		writeSpanTree(sb, c, t0, depth+1)
	}
}
