package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"lrcex/internal/faults"
)

// Tests for the service rungs of the degradation ladder: worker panic
// isolation, the watchdog, the handler panic backstop, the request-body cap,
// request IDs, and the fault-driven health state. Each test that arms
// internal/faults disables it on exit; the package's other tests run with
// the subsystem off (a single atomic load).

// TestWorkerPanicContained injects one panic into the lone worker: the
// poisoned request answers a well-formed JSON 500, /healthz degrades with a
// panic reason, and — the capacity property — the same single worker then
// serves the next request cleanly.
func TestWorkerPanicContained(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	faults.Enable(faults.Config{Seed: 7, Rates: map[faults.Point]faults.Rate{
		faults.ServerWorker: {Prob: 1, Max: 1},
	}})
	defer faults.Disable()

	var er ErrorResponse
	res := postAnalyze(t, ts, &AnalyzeRequest{Grammar: figure1Source(t)}, &er)
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned request: status = %d, want 500", res.StatusCode)
	}
	if er.Code != "internal" || !strings.Contains(er.Error, "worker panic") {
		t.Fatalf("poisoned request body = %+v, want internal/worker panic", er)
	}
	if res.Header.Get("X-Request-ID") == "" {
		t.Fatal("500 response missing X-Request-ID")
	}
	if got := s.m.panics.Load(); got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}

	// The panic must degrade health, not kill it: /healthz still 200.
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.NewDecoder(hres.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusOK {
		t.Fatalf("degraded healthz: status = %d, want 200 (advisory)", hres.StatusCode)
	}
	if health.Status != "degraded" || len(health.Reasons) == 0 || !strings.Contains(health.Reasons[0], "panic") {
		t.Fatalf("healthz after panic = %+v, want degraded with a panic reason", health)
	}

	// Capacity survives: the Max:1 schedule is spent, and the one worker
	// that recovered must complete this analysis.
	var resp AnalyzeResponse
	res = postAnalyze(t, ts, &AnalyzeRequest{Grammar: figure1Source(t)}, &resp)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("request after recovery: status = %d, want 200 from the surviving worker", res.StatusCode)
	}
	if resp.ConflictCount == 0 {
		t.Fatal("surviving worker produced an empty report")
	}
}

// TestWatchdogAbandonsStalledAnalysis wedges the worker via the test gate
// for longer than deadline+grace: the watchdog must answer 500 rather than
// hold the client, count the stall, and degrade health.
func TestWatchdogAbandonsStalledAnalysis(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:         1,
		DefaultDeadline: 50 * time.Millisecond,
		WatchdogGrace:   50 * time.Millisecond,
	})
	release := make(chan struct{})
	s.testGate = func() { <-release }
	defer close(release)

	var er ErrorResponse
	res := postAnalyze(t, ts, &AnalyzeRequest{Grammar: figure1Source(t)}, &er)
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("stalled request: status = %d, want 500 from the watchdog", res.StatusCode)
	}
	if !strings.Contains(er.Error, "watchdog") {
		t.Fatalf("stalled request body = %+v, want a watchdog error", er)
	}
	if got := s.m.stalls.Load(); got != 1 {
		t.Fatalf("stall counter = %d, want 1", got)
	}
	if reasons := s.health.degradedReasons(); len(reasons) == 0 || !strings.Contains(reasons[0], "stall") {
		t.Fatalf("health reasons after stall = %v, want a watchdog reason", reasons)
	}
}

// TestRequestBodyCap413 checks the transport-level body cap, which guards
// the JSON decoder itself and is independent of gdl's source-size limit: an
// over-cap body is refused with a typed 413 before any parsing.
func TestRequestBodyCap413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	big := strings.Repeat("x", 4096)
	for _, rt := range v1Routes {
		var er ErrorResponse
		res := postTo(t, ts, rt.path, rt.body(big, AnalyzeOptions{}), &er)
		if res.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body: status = %d, want 413", rt.path, res.StatusCode)
		}
		if er.Code != "too_large" || !strings.Contains(er.Error, "1024") {
			t.Fatalf("%s: 413 body = %+v, want code too_large naming the limit", rt.path, er)
		}
	}
	// The typed error is also available programmatically.
	e := &RequestTooLargeError{Limit: 1024}
	if !strings.Contains(e.Error(), "1024") {
		t.Fatalf("RequestTooLargeError.Error() = %q", e.Error())
	}
}

// TestRequestIDsEchoedAndUnique checks the middleware mints a fresh
// X-Request-ID per request in the documented shape.
func TestRequestIDsEchoedAndUnique(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	shape := regexp.MustCompile(`^[0-9a-f]{8}-[0-9]{6}$`)
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		res, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		id := res.Header.Get("X-Request-ID")
		if !shape.MatchString(id) {
			t.Fatalf("X-Request-ID %q does not match %v", id, shape)
		}
		if seen[id] {
			t.Fatalf("request ID %q repeated", id)
		}
		seen[id] = true
	}
}

// TestPanicBackstopWritesJSON500 drives the outermost recovery rung
// directly: a handler that panics before writing must still yield a JSON
// 500 carrying the request ID; a handler that panics after committing a
// response must not have its output rewritten.
func TestPanicBackstopWritesJSON500(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())

	boom := s.withRequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if RequestID(r.Context()) == "" {
			t.Error("handler saw no request ID in its context")
		}
		panic("kaboom")
	}))
	rec := httptest.NewRecorder()
	boom.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/analyze", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("backstop status = %d, want 500", rec.Code)
	}
	var er ErrorResponse
	if err := json.NewDecoder(rec.Body).Decode(&er); err != nil {
		t.Fatalf("backstop body is not JSON: %v", err)
	}
	if er.Code != "panic" || er.RequestID == "" {
		t.Fatalf("backstop body = %+v, want code panic with a request ID", er)
	}
	if got := rec.Header().Get("X-Request-ID"); got != er.RequestID {
		t.Fatalf("header request ID %q != body request ID %q", got, er.RequestID)
	}

	// Committed responses stay committed.
	late := s.withRequestID(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		w.Write([]byte("partial"))
		panic("too late")
	}))
	rec = httptest.NewRecorder()
	late.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/analyze", nil))
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), []byte("partial")) {
		t.Fatalf("committed response rewritten: code=%d body=%q", rec.Code, rec.Body.String())
	}
	if got := s.m.panics.Load(); got != 2 {
		t.Fatalf("panic counter = %d, want 2", got)
	}
}

// TestInjectedQueueAndCacheFaults covers the two service injection points
// that degrade rather than fail: a queue fault sheds with a well-formed 429,
// and a cache fault forces a clean recomputation instead of a hit.
func TestInjectedQueueAndCacheFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	src := figure1Source(t)

	// Warm the cache cleanly.
	var warm AnalyzeResponse
	if res := postAnalyze(t, ts, &AnalyzeRequest{Grammar: src}, &warm); res.StatusCode != http.StatusOK {
		t.Fatalf("warmup: %d", res.StatusCode)
	}

	faults.Enable(faults.Config{Seed: 11, Rates: map[faults.Point]faults.Rate{
		faults.ServerQueue: {Prob: 1, Max: 1},
	}})
	defer faults.Disable()

	// The cache still answers ahead of the queue (fingerprints are
	// canonical), so use a structurally distinct grammar to reach the
	// injected queue rejection.
	var er ErrorResponse
	res := postAnalyze(t, ts, &AnalyzeRequest{Grammar: uniqueGrammar(99)}, &er)
	if res.StatusCode != http.StatusTooManyRequests || er.Code != "overloaded" {
		t.Fatalf("queue fault: status=%d code=%q, want a well-formed 429", res.StatusCode, er.Code)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("injected shed missing Retry-After")
	}

	faults.Enable(faults.Config{Seed: 11, Rates: map[faults.Point]faults.Rate{
		faults.ServerCache: {Prob: 1, Max: 1},
	}})
	var resp AnalyzeResponse
	res = postAnalyze(t, ts, &AnalyzeRequest{Grammar: src}, &resp)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("cache fault: status = %d, want 200 (recompute, not fail)", res.StatusCode)
	}
	if resp.Cached {
		t.Fatal("cache fault did not suppress the hit")
	}
	if resp.Fingerprint != warm.Fingerprint {
		t.Fatalf("recomputed fingerprint %q != warm %q", resp.Fingerprint, warm.Fingerprint)
	}
}
