package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestCacheHitAllocsPinned pins the allocations of one warm result-cache hit
// through Handler() on each /v1 route — the whole of the serve_hot workload's
// server-side work: request ID, decode, fingerprint, cache lookup, and the
// write of the stored bytes around the encoded timings. A change to the
// shared request pipeline may lower these counts but must not raise them.
// Skipped under -short, whose race-instrumented runs allocate differently.
func TestCacheHitAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin runs without -short")
	}
	// Measured with cache hits served from stored bytes and a streaming
	// fingerprint (AllocsPerRun truncates the mean; in 20 runs the analyze
	// route read 55, once 54, and the repair route 55).
	pins := map[string]float64{
		"/v1/analyze": 55,
		"/v1/repair":  55,
	}
	s := New(Config{Workers: 1})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	src := danglingElseSource(t)
	for _, rt := range v1Routes {
		body, err := json.Marshal(rt.body(src, AnalyzeOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		serve := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, rt.path, bytes.NewReader(body)))
			return rec
		}
		for i, want := range []bool{false, true} {
			rec := serve()
			var resp RepairResponse
			if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil || rec.Code != http.StatusOK || resp.Cached != want {
				t.Fatalf("%s request %d: status=%d cached=%t err=%v, want 200 cached=%t", rt.path, i, rec.Code, resp.Cached, err, want)
			}
		}
		got := testing.AllocsPerRun(1000, func() { serve() })
		t.Logf("%s: %.0f allocs per cache hit", rt.path, got)
		if got > pins[rt.path] {
			t.Errorf("%s: %.0f allocs per cache hit, pinned at %.0f", rt.path, got, pins[rt.path])
		}
	}
}
