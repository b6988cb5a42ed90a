package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// The three export forms of a finished trace:
//
//   - Canonical: a deterministic text rendering of the span tree — children
//     sorted by (seq, name, id), timestamps and volatile attributes omitted —
//     used by the determinism harnesses to assert byte-identity across
//     worker counts and replayed fault schedules.
//   - TraceJSON: the structured form served at /debug/traces.
//   - Chrome: the Chrome trace-event format (chrome://tracing, Perfetto),
//     written by -trace-out and served at /debug/traces?format=chrome.

// sortedSpans returns the trace's spans in canonical order: a depth-first
// walk with children ordered by (seq, name, id). The order is a pure
// function of the tree, never of scheduling.
func (t *Trace) sortedSpans() []*Span {
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[*Span][]*Span, len(spans))
	var roots []*Span
	for _, s := range spans {
		if s.parent == nil {
			roots = append(roots, s)
		} else {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	less := func(a, b *Span) bool {
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		if a.name != b.name {
			return a.name < b.name
		}
		return a.id < b.id
	}
	sort.Slice(roots, func(i, j int) bool { return less(roots[i], roots[j]) })
	for _, cs := range children {
		sort.Slice(cs, func(i, j int) bool { return less(cs[i], cs[j]) })
	}

	out := make([]*Span, 0, len(spans))
	var walk func(*Span)
	walk = func(s *Span) {
		out = append(out, s)
		for _, c := range children[s] {
			walk(c)
		}
	}
	for _, r := range roots {
		walk(r)
	}
	return out
}

// depth returns the span's distance from the root.
func (s *Span) depth() int {
	d := 0
	for p := s.parent; p != nil; p = p.parent {
		d++
	}
	return d
}

// Canonical renders the span tree deterministically: one line per span,
// indented by depth, carrying the span's name, sequence number, ID, and its
// non-volatile attributes in insertion order. Wall-clock and volatile
// attributes are excluded, so two runs of the same pipeline under the same
// trace ID — at any -j worker count, or replaying the same fault
// seed — render byte-identically.
func (t *Trace) Canonical() string {
	var b strings.Builder
	for _, s := range t.sortedSpans() {
		for i := 0; i < s.depth(); i++ {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s#%d id=%016x", s.name, s.seq, s.id)
		s.mu.Lock()
		for _, a := range s.attrs {
			if a.Volatile {
				continue
			}
			fmt.Fprintf(&b, " %s=%v", a.Key, a.Val)
		}
		s.mu.Unlock()
		b.WriteByte('\n')
	}
	return b.String()
}

// AttrJSON is one attribute in wire form.
type AttrJSON struct {
	Key      string `json:"key"`
	Val      any    `json:"val"`
	Volatile bool   `json:"volatile,omitempty"`
}

// SpanJSON is one span in wire form. Parent is "0" for the root.
type SpanJSON struct {
	ID       string     `json:"id"`
	Parent   string     `json:"parent,omitempty"`
	Name     string     `json:"name"`
	Seq      uint64     `json:"seq"`
	StartNS  int64      `json:"start_unix_ns"`
	DurUS    float64    `json:"dur_us"`
	Attrs    []AttrJSON `json:"attrs,omitempty"`
	Children int        `json:"children,omitempty"`
}

// TraceJSON is one finished trace in wire form, spans in canonical order.
type TraceJSON struct {
	TraceID string     `json:"trace_id"`
	StartNS int64      `json:"start_unix_ns"`
	DurUS   float64    `json:"dur_us"`
	Spans   []SpanJSON `json:"spans"`
}

// JSON returns the trace's wire form.
func (t *Trace) JSON() TraceJSON {
	spans := t.sortedSpans()
	childCount := make(map[*Span]int, len(spans))
	for _, s := range spans {
		if s.parent != nil {
			childCount[s.parent]++
		}
	}
	tj := TraceJSON{TraceID: t.id, StartNS: t.root.start.UnixNano()}
	for _, s := range spans {
		sj := SpanJSON{
			ID:       fmt.Sprintf("%016x", s.id),
			Name:     s.name,
			Seq:      s.seq,
			StartNS:  s.start.UnixNano(),
			DurUS:    float64(s.Duration()) / float64(time.Microsecond),
			Children: childCount[s],
		}
		if s.parent != nil {
			sj.Parent = fmt.Sprintf("%016x", s.parent.id)
		}
		s.mu.Lock()
		for _, a := range s.attrs {
			sj.Attrs = append(sj.Attrs, AttrJSON{Key: a.Key, Val: a.Val, Volatile: a.Volatile})
		}
		s.mu.Unlock()
		if s.parent == nil {
			tj.DurUS = sj.DurUS
		}
		tj.Spans = append(tj.Spans, sj)
	}
	return tj
}

// chromeEvent is one complete ("X"-phase) event in the Chrome trace-event
// format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object flavor of the trace-event file format.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
}

// Chrome renders traces as a Chrome trace-event file (chrome://tracing,
// Perfetto). Each trace is one pid; within a trace, spans are packed onto
// tids ("lanes") so that concurrent spans land on separate rows while nested
// spans share their ancestor's row — a readable flame layout without
// recording goroutine identity.
func Chrome(traces []*Trace) []byte {
	var file chromeFile
	var epoch time.Time
	for _, t := range traces {
		if epoch.IsZero() || t.root.start.Before(epoch) {
			epoch = t.root.start
		}
	}
	for ti, t := range traces {
		spans := t.sortedSpans()
		lanes := assignLanes(spans)
		for _, s := range spans {
			ev := chromeEvent{
				Name: s.name,
				Cat:  "lrcex",
				Ph:   "X",
				TS:   float64(s.start.Sub(epoch)) / float64(time.Microsecond),
				Dur:  float64(s.Duration()) / float64(time.Microsecond),
				PID:  ti + 1,
				TID:  lanes[s],
			}
			s.mu.Lock()
			if len(s.attrs) > 0 {
				ev.Args = make(map[string]any, len(s.attrs)+1)
				for _, a := range s.attrs {
					ev.Args[a.Key] = a.Val
				}
			} else {
				ev.Args = make(map[string]any, 1)
			}
			s.mu.Unlock()
			ev.Args["trace_id"] = t.id
			file.TraceEvents = append(file.TraceEvents, ev)
		}
	}
	b, _ := json.MarshalIndent(&file, "", " ")
	return b
}

// assignLanes packs spans onto numbered lanes: a span shares its parent's
// lane when it nests after the parent's previous child on that lane, and
// moves to the first lane free of overlapping spans otherwise. Sorting is by
// (start, longer-first) so ancestors claim lanes before their descendants.
func assignLanes(spans []*Span) map[*Span]int {
	sorted := append([]*Span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if !a.start.Equal(b.start) {
			return a.start.Before(b.start)
		}
		return a.Duration() > b.Duration()
	})
	lanes := make(map[*Span]int, len(spans))
	type open struct{ start, end time.Time }
	var laneTop []open // innermost open interval per lane
	endOf := func(s *Span) time.Time {
		if d := s.Duration(); d > 0 {
			return s.start.Add(d)
		}
		return s.start
	}
	for _, s := range sorted {
		start, end := s.start, endOf(s)
		lane := -1
		// Prefer the parent's lane when we nest inside what's open there.
		if s.parent != nil {
			pl := lanes[s.parent]
			if pl < len(laneTop) && !laneTop[pl].end.Before(end) {
				lane = pl
			}
		}
		if lane < 0 {
			for i, top := range laneTop {
				if !top.end.After(start) || (!top.start.After(start) && !top.end.Before(end)) {
					lane = i
					break
				}
			}
		}
		if lane < 0 {
			lane = len(laneTop)
			laneTop = append(laneTop, open{})
		}
		laneTop[lane] = open{start: start, end: end}
		lanes[s] = lane
	}
	return lanes
}
