package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestDisabledFastPathZeroAllocs is the hot-path regression guard promised
// by the package doc: with no live trace anywhere in the process, every
// instrumentation helper must allocate nothing — the whole cost is one
// atomic load. The search core calls these per conflict; a regression here
// taxes every untraced analysis.
func TestDisabledFastPathZeroAllocs(t *testing.T) {
	if Active() {
		t.Fatal("a trace is live; the disabled fast path cannot be measured")
	}
	ctx := context.Background()
	cases := map[string]func(){
		"Start": func() {
			ctx2, sp := Start(ctx, "conflict.search")
			sp.Set("k", 1)
			sp.End()
			_ = ctx2
		},
		"StartSeq": func() {
			ctx2, sp := StartSeq(ctx, "conflict.search", 7)
			sp.SetVolatile("k", 1)
			sp.End()
			_ = ctx2
		},
		"Time": func() {
			ctx2, tm := Time(ctx, "table.build")
			tm.Span().Set("states", 1)
			_ = tm.End()
			_ = ctx2
		},
		"Root": func() {
			ctx2, tm := Root(ctx, nil, "rid", "http.request")
			_ = tm.End()
			_ = ctx2
		},
		"FromContext": func() { _ = FromContext(ctx) },
		"ID":          func() { _ = ID(ctx) },
	}
	for name, fn := range cases {
		if n := testing.AllocsPerRun(200, fn); n != 0 {
			t.Errorf("%s allocated %.1f times per run with tracing disabled; want 0", name, n)
		}
	}
}

// TestDisabledReturnsSameContext: the disabled path must not rebind the
// context either — the caller's chain stays untouched.
func TestDisabledReturnsSameContext(t *testing.T) {
	ctx := context.Background()
	if ctx2, sp := Start(ctx, "x"); ctx2 != ctx || sp != nil {
		t.Fatal("disabled Start rebound the context or returned a span")
	}
	if ctx2, sp := StartSeq(ctx, "x", 1); ctx2 != ctx || sp != nil {
		t.Fatal("disabled StartSeq rebound the context or returned a span")
	}
}

// TestNilSpanSafety: every method on a nil span is a no-op.
func TestNilSpanSafety(t *testing.T) {
	var s *Span
	s.Set("k", 1)
	s.SetVolatile("k", 1)
	s.End()
	if s.Name() != "" || s.ID() != 0 || s.ParentID() != 0 || s.Duration() != 0 {
		t.Fatal("nil span accessors returned non-zero values")
	}
	if s.Attrs() != nil || s.Attr("k") != nil {
		t.Fatal("nil span attrs not empty")
	}
}

// buildTrace runs a miniature pipeline: root → parse, search → N conflict
// spans (started concurrently with explicit seqs), one with a recovery
// child. Returns the finished trace.
func buildTrace(t *testing.T, tracer *Tracer, id string, conflicts int) *Trace {
	t.Helper()
	ctx, root := New(context.Background(), tracer, id, "run")
	if root == nil {
		t.Fatal("New returned a nil root with a non-nil tracer")
	}

	_, psp := Start(ctx, "gdl.parse")
	psp.Set("productions", 12)
	psp.SetVolatile("elapsed_ms", 1.25)
	psp.End()

	sctx, ssp := Start(ctx, "search")
	var wg sync.WaitGroup
	for i := 0; i < conflicts; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cctx, csp := StartSeq(sctx, "conflict.search", i)
			csp.Set("state", 10+i)
			csp.Set("kind", "unifying")
			csp.SetVolatile("expanded", 100*i)
			if i == 1 {
				_, rsp := Start(cctx, "conflict.recover")
				rsp.Set("panic", "injected")
				rsp.End()
			}
			csp.End()
		}(i)
	}
	wg.Wait()
	ssp.End()
	root.End()

	traces := tracer.Traces()
	if len(traces) == 0 {
		t.Fatal("trace did not land in the ring")
	}
	return traces[len(traces)-1]
}

// TestCanonicalDeterministicUnderConcurrency: the canonical rendering must
// be byte-identical across runs even though the conflict spans race to
// register, because IDs and order derive from explicit sequence numbers.
func TestCanonicalDeterministicUnderConcurrency(t *testing.T) {
	var want string
	for run := 0; run < 20; run++ {
		tracer := NewTracer(4)
		tr := buildTrace(t, tracer, "fixed-id", 6)
		got := tr.Canonical()
		if run == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("canonical rendering diverged on run %d:\n%s\nvs\n%s", run, got, want)
		}
	}
	if !strings.Contains(want, "conflict.recover#1 ") {
		t.Fatalf("canonical rendering lost the recovery span:\n%s", want)
	}
	if strings.Contains(want, "expanded") || strings.Contains(want, "elapsed_ms") {
		t.Fatalf("canonical rendering leaked volatile attributes:\n%s", want)
	}
	if !strings.Contains(want, "state=11") {
		t.Fatalf("canonical rendering lost deterministic attributes:\n%s", want)
	}
}

// TestSpanIDsIndependentOfCompletionOrder: the same pipeline under the same
// trace ID yields the same span IDs; a different trace ID yields different
// ones (IDs mix the trace identity in).
func TestSpanIDsIndependentOfCompletionOrder(t *testing.T) {
	a := buildTrace(t, NewTracer(1), "id-A", 4)
	b := buildTrace(t, NewTracer(1), "id-A", 4)
	c := buildTrace(t, NewTracer(1), "id-B", 4)
	if a.Canonical() != b.Canonical() {
		t.Fatal("same trace ID produced different canonical trees")
	}
	if a.Canonical() == c.Canonical() {
		t.Fatal("different trace IDs produced identical canonical trees (IDs not mixed in)")
	}
}

// TestRingBufferBounded: the ring retains the newest capacity traces, oldest
// first, and counts the total.
func TestRingBufferBounded(t *testing.T) {
	tracer := NewTracer(3)
	for i := 0; i < 7; i++ {
		_, root := New(context.Background(), tracer, fmt.Sprintf("t%d", i), "run")
		root.End()
	}
	if tracer.Len() != 3 {
		t.Fatalf("ring holds %d traces, want 3", tracer.Len())
	}
	if tracer.Total() != 7 {
		t.Fatalf("ring total %d, want 7", tracer.Total())
	}
	ids := []string{}
	for _, tr := range tracer.Traces() {
		ids = append(ids, tr.ID())
	}
	if got, want := strings.Join(ids, ","), "t4,t5,t6"; got != want {
		t.Fatalf("ring order %s, want %s", got, want)
	}
	if Active() {
		t.Fatal("liveTraces leaked: all traces were finished")
	}
}

// TestJSONExport: wire form carries the tree (IDs, parents, attrs) in
// canonical order.
func TestJSONExport(t *testing.T) {
	tr := buildTrace(t, NewTracer(1), "json", 2)
	tj := tr.JSON()
	if tj.TraceID != "json" {
		t.Fatalf("trace id %q", tj.TraceID)
	}
	if len(tj.Spans) != 6 { // run, parse, search, 2 conflicts, 1 recover
		t.Fatalf("exported %d spans, want 6", len(tj.Spans))
	}
	if tj.Spans[0].Name != "run" || tj.Spans[0].Parent != "" {
		t.Fatalf("first span %+v is not the root", tj.Spans[0])
	}
	byID := map[string]SpanJSON{}
	for _, s := range tj.Spans {
		byID[s.ID] = s
	}
	for _, s := range tj.Spans[1:] {
		if _, ok := byID[s.Parent]; !ok {
			t.Fatalf("span %s has dangling parent %s", s.Name, s.Parent)
		}
	}
	// Round-trips through encoding/json.
	b, err := json.Marshal(tj)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceJSON
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(tj.Spans) {
		t.Fatal("JSON round-trip lost spans")
	}
}

// TestChromeExport: the trace-event file parses as JSON, events are
// complete-phase with microsecond timestamps, and concurrent conflict spans
// land on distinct lanes while nested spans may share one.
func TestChromeExport(t *testing.T) {
	tracer := NewTracer(2)
	tr := buildTrace(t, tracer, "chrome", 3)
	b := Chrome([]*Trace{tr})
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &file); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	if len(file.TraceEvents) != 7 { // run, parse, search, 3 conflicts, 1 recover
		t.Fatalf("chrome export has %d events, want 7", len(file.TraceEvents))
	}
	for _, ev := range file.TraceEvents {
		if ev["ph"] != "X" {
			t.Fatalf("event %v is not complete-phase", ev)
		}
		if _, ok := ev["args"].(map[string]any)["trace_id"]; !ok {
			t.Fatalf("event %v lost its trace_id arg", ev)
		}
	}
}

// TestDetach: a detached context keeps the span (flight instrumentation)
// but drops deadlines and values from the original chain.
func TestDetach(t *testing.T) {
	tracer := NewTracer(1)
	ctx, root := New(context.Background(), tracer, "detach", "run")
	dctx, cancel := context.WithCancel(ctx)
	cancel()
	fresh := Detach(dctx)
	if fresh.Err() != nil {
		t.Fatal("detached context inherited cancellation")
	}
	if FromContext(fresh) != root {
		t.Fatal("detached context lost the span")
	}
	root.End()
	if got := Detach(context.Background()); FromContext(got) != nil {
		t.Fatal("detaching an untraced context invented a span")
	}
}

// TestDurations: spans report plausible durations after End.
func TestDurations(t *testing.T) {
	tracer := NewTracer(1)
	_, root := New(context.Background(), tracer, "dur", "run")
	time.Sleep(2 * time.Millisecond)
	root.End()
	if d := root.Duration(); d < time.Millisecond {
		t.Fatalf("root duration %v implausibly small", d)
	}
}

// TestTimerEndIsSpanDuration pins the one-clock contract: the duration a
// Timer's End returns is exactly the span's stamped Duration, for a child
// phase and for a timed root; untraced, End still measures.
func TestTimerEndIsSpanDuration(t *testing.T) {
	ctx, root := Root(context.Background(), NewTracer(1), "one-clock", "run")
	_, phase := Time(ctx, "gdl.parse")
	time.Sleep(time.Millisecond)
	if got, want := phase.End(), phase.Span().Duration(); got != want || got <= 0 {
		t.Errorf("phase End() = %v, span duration %v; want equal and positive", got, want)
	}
	if got, want := root.End(), root.Span().Duration(); got != want || got <= 0 {
		t.Errorf("root End() = %v, span duration %v; want equal and positive", got, want)
	}

	_, untraced := Time(context.Background(), "gdl.parse")
	time.Sleep(time.Millisecond)
	if untraced.Span() != nil {
		t.Fatal("untraced Time opened a span")
	}
	if d := untraced.End(); d < time.Millisecond {
		t.Errorf("untraced End() = %v, want >= 1ms", d)
	}
}

// TestFinishSealsTrace pins the watchdog-abandonment contract: once the root
// span ends (finishing the trace into the ring), a worker goroutine still
// holding the trace's contexts and spans cannot mutate the tree readers see —
// new spans are dropped, attribute writes are dropped, and any span left
// open is end-stamped at finish time.
func TestFinishSealsTrace(t *testing.T) {
	// Keep an unrelated trace live so the global fast path cannot mask the
	// per-trace seal.
	_, other := New(context.Background(), NewTracer(1), "other", "root")
	defer other.End()

	tr := NewTracer(1)
	ctx, root := New(context.Background(), tr, "sealed", "root")
	childCtx, child := Start(ctx, "worker")
	time.Sleep(time.Millisecond) // so the seal's end stamp is after start
	root.End()                   // finishes the trace with child still open

	traces := tr.Traces()
	if len(traces) != 1 {
		t.Fatalf("retained %d traces, want 1", len(traces))
	}
	if got := len(traces[0].Spans()); got != 2 {
		t.Fatalf("finished trace has %d spans, want 2", got)
	}
	if child.Duration() <= 0 {
		t.Error("open span not end-stamped at finish")
	}

	// The abandoned worker keeps going: none of this may reach the tree.
	if _, s := Start(childCtx, "late"); s != nil {
		t.Error("Start on a finished trace returned a live span")
	}
	if _, s := StartSeq(childCtx, "late", 7); s != nil {
		t.Error("StartSeq on a finished trace returned a live span")
	}
	child.Set("k", "v")
	child.SetVolatile("vk", 1)
	if child.Attr("k") != nil || child.Attr("vk") != nil {
		t.Error("attribute write on a sealed trace was recorded")
	}
	end := child.Duration()
	child.End() // idempotent: must not restamp
	if child.Duration() != end {
		t.Error("End on a sealed span changed its duration")
	}
	if got := len(tr.Traces()[0].Spans()); got != 2 {
		t.Errorf("sealed trace grew to %d spans", got)
	}
}
