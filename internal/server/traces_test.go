package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"lrcex/internal/trace"
)

// tracesBody is the JSON shape /debug/traces serves.
type tracesBody struct {
	Retained int               `json:"retained"`
	Total    int64             `json:"total"`
	Traces   []trace.TraceJSON `json:"traces"`
}

// TestDebugTracesEndpoint exercises the whole tracing pipeline through HTTP:
// a /v1/analyze request leaves a span tree in the ring buffer whose trace ID
// equals the response's X-Request-ID, whose root is http.request, and whose
// descendants cover parse, table build, and one conflict.search per
// conflict. ?format=chrome serves the same spans as trace events.
func TestDebugTracesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Tracer: trace.NewTracer(8)})

	var resp AnalyzeResponse
	res := postAnalyze(t, ts, &AnalyzeRequest{Name: "figure1", Grammar: figure1Source(t)}, &resp)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", res.StatusCode)
	}
	rid := res.Header.Get("X-Request-ID")
	if rid == "" {
		t.Fatal("no X-Request-ID header")
	}

	tr, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	if tr.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status = %d", tr.StatusCode)
	}
	var body tracesBody
	if err := json.NewDecoder(tr.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}

	var got *trace.TraceJSON
	for i := range body.Traces {
		if body.Traces[i].TraceID == rid {
			got = &body.Traces[i]
		}
	}
	if got == nil {
		t.Fatalf("no trace with ID %s among %d retained", rid, body.Retained)
	}
	if len(got.Spans) == 0 || got.Spans[0].Name != "http.request" {
		t.Fatalf("root span = %+v, want http.request", got.Spans)
	}
	count := map[string]int{}
	for _, sp := range got.Spans {
		count[sp.Name]++
	}
	for _, want := range []string{"gdl.parse", "table.build", "singleflight.lead", "queue.wait", "search"} {
		if count[want] != 1 {
			t.Errorf("span %s appears %d times, want 1", want, count[want])
		}
	}
	if count["conflict.search"] != resp.ConflictCount {
		t.Errorf("conflict.search spans = %d, want %d", count["conflict.search"], resp.ConflictCount)
	}

	// A second identical request is a cache hit: its trace exists too but
	// carries no singleflight span.
	res2 := postAnalyze(t, ts, &AnalyzeRequest{Name: "figure1", Grammar: figure1Source(t)}, nil)
	rid2 := res2.Header.Get("X-Request-ID")
	tr2, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tr2.Body.Close()
	var body2 tracesBody
	if err := json.NewDecoder(tr2.Body).Decode(&body2); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, cand := range body2.Traces {
		if cand.TraceID != rid2 {
			continue
		}
		found = true
		for _, sp := range cand.Spans {
			if sp.Name == "singleflight.lead" {
				t.Error("cache-hit trace has a singleflight span")
			}
		}
	}
	if !found {
		t.Fatalf("cache-hit request %s left no trace", rid2)
	}
	if body2.Total < 2 {
		t.Fatalf("tracer total = %d, want >= 2", body2.Total)
	}

	// Chrome export: same data, trace-event envelope.
	ch, err := http.Get(ts.URL + "/debug/traces?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Body.Close()
	raw, err := io.ReadAll(ch.Body)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export empty")
	}
	if !strings.Contains(string(raw), "conflict.search") {
		t.Error("chrome export missing conflict.search events")
	}
}

// TestTimingsAreSpanDurations pins one clock per phase: each phase figure a
// traced analysis reports in Timings is its span's duration, from the same
// two clock readings, not a stopwatch started a few instructions apart.
func TestTimingsAreSpanDurations(t *testing.T) {
	tracer := trace.NewTracer(8)
	_, ts := newTestServer(t, Config{Tracer: tracer})

	var resp AnalyzeResponse
	res := postAnalyze(t, ts, &AnalyzeRequest{Name: "figure1", Grammar: figure1Source(t)}, &resp)
	if res.StatusCode != http.StatusOK || resp.Cached || resp.CompileCached {
		t.Fatalf("status %d cached=%t compile_cached=%t, want a fresh 200", res.StatusCode, resp.Cached, resp.CompileCached)
	}
	// The root span ends after the response is written; wait for the trace
	// to land in the ring.
	rid := res.Header.Get("X-Request-ID")
	var got *trace.Trace
	for deadline := time.Now().Add(5 * time.Second); got == nil && time.Now().Before(deadline); {
		for _, tr := range tracer.Traces() {
			if tr.ID() == rid {
				got = tr
			}
		}
		time.Sleep(time.Millisecond)
	}
	if got == nil {
		t.Fatalf("no trace %s in the ring", rid)
	}
	durs := map[string]float64{}
	for _, sp := range got.Spans() {
		durs[sp.Name()] = millis(sp.Duration())
	}
	for _, c := range []struct {
		span string
		ms   float64
	}{
		{"queue.wait", resp.Timings.QueueMS},
		{"gdl.parse", resp.Timings.ParseMS},
		{"table.build", resp.Timings.TableMS},
		{"search", resp.Timings.SearchMS},
	} {
		d, ok := durs[c.span]
		if !ok {
			t.Errorf("no %s span", c.span)
			continue
		}
		if math.Abs(d-c.ms) > 1e-9 || d <= 0 {
			t.Errorf("%s: timings say %v ms, span says %v ms; want one nonzero reading", c.span, c.ms, d)
		}
	}
}

// TestDebugTracesDisabled pins the no-tracer behavior: 404 with a JSON error
// body, not a panic or an empty 200.
func TestDebugTracesDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	res, err := http.Get(ts.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", res.StatusCode)
	}
	var e ErrorResponse
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "not_found" {
		t.Fatalf("code = %q", e.Code)
	}
}
