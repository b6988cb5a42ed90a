package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lrcex/internal/corpus"
	"lrcex/internal/gdl"
)

// figure1Source returns the paper's running-example grammar (3 conflicts,
// ambiguous) — the standard payload of these tests.
func figure1Source(t *testing.T) string {
	t.Helper()
	e, ok := corpus.Get("figure1")
	if !ok {
		t.Fatal("corpus grammar figure1 missing")
	}
	return e.Source
}

// newTestServer starts a server + httptest frontend and tears both down.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, ts
}

// tryAnalyze POSTs a request and returns the status code; it never touches
// *testing.T, so it is safe to call from helper goroutines.
func tryAnalyze(ts *httptest.Server, req *AnalyzeRequest) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	res, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer res.Body.Close()
	_ = json.NewDecoder(res.Body).Decode(&struct{}{})
	return res.StatusCode, nil
}

// postAnalyze POSTs a request and decodes the response body into out.
func postAnalyze(t *testing.T, ts *httptest.Server, req *AnalyzeRequest, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decoding %d response: %v", res.StatusCode, err)
		}
	}
	return res
}

func TestAnalyzeBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp AnalyzeResponse
	res := postAnalyze(t, ts, &AnalyzeRequest{Name: "figure1", Grammar: figure1Source(t)}, &resp)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if resp.Cached || resp.Partial {
		t.Fatalf("fresh analysis flagged cached=%t partial=%t", resp.Cached, resp.Partial)
	}
	if len(resp.Fingerprint) != 64 {
		t.Fatalf("fingerprint %q is not sha256 hex", resp.Fingerprint)
	}
	if resp.ConflictCount == 0 || len(resp.Conflicts) != resp.ConflictCount {
		t.Fatalf("conflicts: count=%d listed=%d", resp.ConflictCount, len(resp.Conflicts))
	}
	if len(resp.Examples) != resp.ConflictCount {
		t.Fatalf("examples: %d for %d conflicts", len(resp.Examples), resp.ConflictCount)
	}
	if !resp.Ambiguous {
		t.Fatal("figure1 is ambiguous; report says otherwise")
	}
	for _, ex := range resp.Examples {
		if !strings.Contains(ex.Report, "Warning") {
			t.Fatalf("example report missing CUP header:\n%s", ex.Report)
		}
	}
	if resp.Stats.Expanded == 0 {
		t.Fatal("search stats empty")
	}
	if resp.Timings.TotalMS <= 0 {
		t.Fatalf("timings not populated: %+v", resp.Timings)
	}
}

func TestCacheHitOnResubmission(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	src := figure1Source(t)

	var first AnalyzeResponse
	postAnalyze(t, ts, &AnalyzeRequest{Grammar: src}, &first)
	if first.Cached {
		t.Fatal("first submission was a cache hit")
	}

	var second AnalyzeResponse
	postAnalyze(t, ts, &AnalyzeRequest{Grammar: src}, &second)
	if !second.Cached {
		t.Fatal("identical resubmission missed the cache")
	}
	if second.Fingerprint != first.Fingerprint {
		t.Fatal("fingerprint changed between identical submissions")
	}
	if len(second.Examples) != len(first.Examples) {
		t.Fatal("cached report diverges from the original")
	}
	if first.Timings.SearchMS <= 0 {
		t.Fatalf("miss reports search_ms %v, want > 0", first.Timings.SearchMS)
	}
	checkHitTimings(t, second.Timings)

	// Canonical fingerprint: reformatting (comments, whitespace) still hits.
	var third AnalyzeResponse
	postAnalyze(t, ts, &AnalyzeRequest{Grammar: "// reformatted\n" + src + "\n\n"}, &third)
	if !third.Cached {
		t.Fatal("reformatted source missed the cache (fingerprint not canonical)")
	}
	checkHitTimings(t, third.Timings)

	// Different options → different key → miss.
	var fourth AnalyzeResponse
	postAnalyze(t, ts, &AnalyzeRequest{Grammar: src, Options: AnalyzeOptions{MaxConfigs: 777}}, &fourth)
	if fourth.Cached {
		t.Fatal("different options hit the same cache entry")
	}

	hits, misses, _ := s.cache.counters()
	if hits != 2 || misses != 2 {
		t.Fatalf("cache counters hits=%d misses=%d, want 2/2", hits, misses)
	}

	// The hit ratio is visible on /metrics.
	mres, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mres.Body.Close()
	raw, err := io.ReadAll(mres.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape := string(raw)
	for _, want := range []string{
		"cexd_cache_hits_total 2",
		"cexd_cache_misses_total 2",
		`cexd_requests_total{outcome="cache_hit"} 2`,
		`cexd_requests_total{outcome="ok"} 2`,
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("metrics scrape missing %q:\n%s", want, scrape)
		}
	}
}

// checkHitTimings asserts a result-cache hit reports only the time it spent:
// no queue, parse, table or search phase ran, so each must be zero and the
// total must not be.
func checkHitTimings(t *testing.T, tm Timings) {
	t.Helper()
	if tm.QueueMS != 0 || tm.ParseMS != 0 || tm.TableMS != 0 || tm.SearchMS != 0 {
		t.Fatalf("cache hit reports phase timings for work it did not do: %+v", tm)
	}
	if tm.TotalMS <= 0 {
		t.Fatalf("cache hit reports total_ms %v, want > 0", tm.TotalMS)
	}
}

func TestMalformedRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Malformed JSON.
	res, err := http.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("malformed JSON: status = %d, want 422", res.StatusCode)
	}

	// Malformed GDL.
	var er ErrorResponse
	res = postAnalyze(t, ts, &AnalyzeRequest{Grammar: "x : 'unterminated"}, &er)
	if res.StatusCode != http.StatusUnprocessableEntity || er.Code != "parse_error" {
		t.Fatalf("malformed GDL: status=%d code=%q", res.StatusCode, er.Code)
	}

	// Missing grammar.
	res = postAnalyze(t, ts, &AnalyzeRequest{}, &er)
	if res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("missing grammar: status = %d", res.StatusCode)
	}

	// Invalid options.
	res = postAnalyze(t, ts, &AnalyzeRequest{Grammar: "x : 'a' ;", Options: AnalyzeOptions{Kinds: []string{"bogus"}}}, &er)
	if res.StatusCode != http.StatusUnprocessableEntity || er.Code != "invalid_options" {
		t.Fatalf("invalid kinds: status=%d code=%q", res.StatusCode, er.Code)
	}

	// Wrong method.
	mres, err := http.Get(ts.URL + "/v1/analyze")
	if err != nil {
		t.Fatal(err)
	}
	mres.Body.Close()
	if mres.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET: status = %d, want 405", mres.StatusCode)
	}
}

func TestSourceLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{Limits: gdl.Limits{MaxSourceBytes: 128, MaxProductions: 4, MaxSymbols: 8}})

	// Oversized source → 413.
	var er ErrorResponse
	big := "x : " + strings.Repeat("'a' ", 100) + ";"
	res := postAnalyze(t, ts, &AnalyzeRequest{Grammar: big}, &er)
	if res.StatusCode != http.StatusRequestEntityTooLarge || er.Code != "too_large" {
		t.Fatalf("oversized: status=%d code=%q", res.StatusCode, er.Code)
	}

	// Structurally oversized grammar → 422 with the typed-limit code.
	many := "x : a | b | c | d | e ;"
	res = postAnalyze(t, ts, &AnalyzeRequest{Grammar: many}, &er)
	if res.StatusCode != http.StatusUnprocessableEntity || er.Code != "limit_exceeded" {
		t.Fatalf("too many productions: status=%d code=%q body=%q", res.StatusCode, er.Code, er.Error)
	}

	// Within limits → 200.
	res = postAnalyze(t, ts, &AnalyzeRequest{Grammar: "x : 'a' | 'b' ;"}, &AnalyzeResponse{})
	if res.StatusCode != http.StatusOK {
		t.Fatalf("small grammar rejected: %d", res.StatusCode)
	}
}

// uniqueGrammar mints structurally distinct conflict-free grammars so
// concurrency tests control exactly which requests may collapse or hit.
func uniqueGrammar(i int) string {
	return fmt.Sprintf("x : 'a%d' x | ;", i)
}

func TestQueueFullSheds429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	s.testGate = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}

	// First request occupies the lone worker...
	done1 := make(chan int, 1)
	go func() {
		code, _ := tryAnalyze(ts, &AnalyzeRequest{Grammar: uniqueGrammar(1)})
		done1 <- code
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never picked up the first job")
	}

	// ...the second fills the queue slot...
	done2 := make(chan int, 1)
	go func() {
		code, _ := tryAnalyze(ts, &AnalyzeRequest{Grammar: uniqueGrammar(2)})
		done2 <- code
	}()
	waitFor(t, func() bool { return len(s.jobs) == 1 }, "second job never queued")

	// ...and the third is shed with 429 + Retry-After.
	var er ErrorResponse
	body, _ := json.Marshal(&AnalyzeRequest{Grammar: uniqueGrammar(3)})
	res, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(res.Body).Decode(&er)
	res.Body.Close()
	if res.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: status = %d, want 429", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	if er.Code != "overloaded" {
		t.Fatalf("429 code = %q", er.Code)
	}
	if s.m.shed.Load() != 1 {
		t.Fatalf("shed counter = %d, want 1", s.m.shed.Load())
	}

	close(release)
	if code := <-done1; code != http.StatusOK {
		t.Fatalf("first request: %d", code)
	}
	if code := <-done2; code != http.StatusOK {
		t.Fatalf("queued request: %d", code)
	}
}

func TestSingleflightCollapse(t *testing.T) {
	const n = 5
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	s.testGate = func() { <-release }

	src := figure1Source(t)
	codes := make(chan int, n)
	for i := 0; i < n; i++ {
		go func() {
			code, _ := tryAnalyze(ts, &AnalyzeRequest{Grammar: src})
			codes <- code
		}()
	}
	// All n requests admitted (inflight) before the worker is released ⇒
	// followers must have joined the leader's flight, not started their own.
	waitFor(t, func() bool { return s.m.inflight.Load() == n }, "requests never all arrived")
	close(release)

	for i := 0; i < n; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
	}
	if got := s.m.analyses.Load(); got != 1 {
		t.Fatalf("analyses executed = %d, want 1 (singleflight failed to collapse)", got)
	}
	if got := s.m.collapsed.Load(); got != n-1 {
		t.Fatalf("collapsed = %d, want %d", got, n-1)
	}
	if hits, _, _ := s.cache.counters(); hits != 0 {
		t.Fatalf("cache hits = %d; collapse must not be explained by the cache", hits)
	}
}

func TestDeadlineYieldsPartial504(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.testGate = func() { time.Sleep(50 * time.Millisecond) } // outlive the 1ms deadline

	var resp AnalyzeResponse
	res := postAnalyze(t, ts, &AnalyzeRequest{
		Grammar: figure1Source(t),
		Options: AnalyzeOptions{DeadlineMS: 1},
	}, &resp)
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", res.StatusCode)
	}
	if !resp.Partial {
		t.Fatal("504 response not marked partial")
	}
	if resp.Cached {
		t.Fatal("partial report claims to be cached")
	}

	// Partial reports are not cached: a full-deadline retry recomputes.
	s.testGate = nil
	var retry AnalyzeResponse
	res = postAnalyze(t, ts, &AnalyzeRequest{Grammar: figure1Source(t), Options: AnalyzeOptions{DeadlineMS: 1}}, &retry)
	if res.StatusCode != http.StatusOK && res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("retry status = %d", res.StatusCode)
	}
	if res.StatusCode == http.StatusOK && retry.Cached {
		t.Fatal("complete retry was served the partial report from cache")
	}
}

func TestKindsFilter(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var resp AnalyzeResponse
	res := postAnalyze(t, ts, &AnalyzeRequest{
		Grammar: figure1Source(t),
		Options: AnalyzeOptions{Kinds: []string{"unifying"}},
	}, &resp)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if resp.ConflictCount == 0 {
		t.Fatal("conflicts disappeared under a kind filter")
	}
	if len(resp.Examples) == 0 {
		t.Fatal("figure1 has unifying examples; filter returned none")
	}
	for _, ex := range resp.Examples {
		if !ex.Unifying {
			t.Fatalf("kind filter leaked %s example", ex.Kind)
		}
	}
	if !resp.Ambiguous {
		t.Fatal("ambiguity flag lost under filtering")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 4})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testGate = func() {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
	}

	// In-flight request held at the worker.
	inflight := make(chan *http.Response, 1)
	go func() {
		body, _ := json.Marshal(&AnalyzeRequest{Grammar: figure1Source(t)})
		res, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err == nil {
			inflight <- res
		}
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	// Begin draining.
	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	waitFor(t, s.Draining, "Draining never became true")

	// New work is refused with 503 + Retry-After while draining.
	body, _ := json.Marshal(&AnalyzeRequest{Grammar: uniqueGrammar(9)})
	res, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted work: %d", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Fatal("503 missing Retry-After")
	}

	// Health flips to draining.
	hres, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hres.Body.Close()
	if hres.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d", hres.StatusCode)
	}

	// The in-flight analysis still completes — that's the drain guarantee.
	close(release)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case res := <-inflight:
		var resp AnalyzeResponse
		if err := json.NewDecoder(res.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK || len(resp.Examples) == 0 {
			t.Fatalf("drained request: status=%d examples=%d", res.StatusCode, len(resp.Examples))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never completed")
	}

	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", res.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(res.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Fatalf("healthz body: %v", body)
	}
}

func TestMetricsScrapeShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postAnalyze(t, ts, &AnalyzeRequest{Grammar: figure1Source(t)}, nil)

	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	scrape := string(raw)
	if !strings.HasPrefix(res.Header.Get("Content-Type"), "text/plain") {
		t.Fatalf("content type %q", res.Header.Get("Content-Type"))
	}
	// Every non-comment line is "name value" or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(scrape), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"cexd_search_expanded_total",
		"cexd_queue_depth 0",
		"cexd_in_flight 0",
		`cexd_request_duration_seconds_bucket{outcome="ok",le="+Inf"} 1`,
		"cexd_analyses_total 1",
		"cexd_uptime_seconds",
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("scrape missing %q:\n%s", want, scrape)
		}
	}
}

// waitFor polls cond for up to 10s.
func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal(msg)
}

// TestConcurrentMixedLoad hammers the server with a mix of identical and
// distinct submissions under -race: no panics, no goroutine leaks via
// Shutdown, every response a sane status.
func TestConcurrentMixedLoad(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8})
	var wg sync.WaitGroup
	codes := make([]int, 32)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _ := tryAnalyze(ts, &AnalyzeRequest{Grammar: uniqueGrammar(i % 4)})
			codes[i] = code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		switch code {
		case http.StatusOK, http.StatusTooManyRequests:
		default:
			t.Fatalf("request %d: unexpected status %d", i, code)
		}
	}
}
