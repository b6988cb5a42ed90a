package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// postRepair POSTs a repair request and decodes the response body into out.
func postRepair(t *testing.T, ts *httptest.Server, req *RepairRequest, out any) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+"/v1/repair", "application/json", bytes.NewReader(body))
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

func danglingElseSource(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "danglingelse.cfg"))
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestRepairEndpoint: the golden dangling-else grammar gets a validated
// zero-conflict suggestion over the wire, with the analysis half intact.
func TestRepairEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	req := &RepairRequest{Name: "dangling", Grammar: danglingElseSource(t)}
	var out RepairResponse
	res := postRepair(t, ts, req, &out)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", res.StatusCode)
	}
	if out.ConflictCount != 1 || len(out.Conflicts) != 1 || len(out.Examples) != 1 {
		t.Fatalf("analysis half wrong: %+v", out.AnalyzeResponse)
	}
	if out.Repair == nil {
		t.Fatal("no repair report in response")
	}
	if !out.Repair.ZeroConflict {
		t.Fatalf("no zero-conflict fix: %+v", out.Repair)
	}
	if len(out.Repair.PerConflict) != 1 || len(out.Repair.PerConflict[0].Suggestions) == 0 {
		t.Fatalf("no suggestions: %+v", out.Repair)
	}
	top := out.Repair.PerConflict[0].Suggestions[0]
	if !top.Validated || top.ConflictsAfter != 0 || top.Patch == "" {
		t.Fatalf("top suggestion not a validated zero-conflict patch: %+v", top)
	}
}

// TestRepairCache: an identical resubmission is served from the result cache
// (Cached set, same suggestions), and a different repair option key misses.
func TestRepairCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	req := &RepairRequest{Name: "dangling", Grammar: danglingElseSource(t)}

	var first, second RepairResponse
	if res := postRepair(t, ts, req, &first); res.StatusCode != http.StatusOK {
		t.Fatalf("first status = %d", res.StatusCode)
	}
	if first.Cached {
		t.Fatal("first response claims cached")
	}
	if res := postRepair(t, ts, req, &second); res.StatusCode != http.StatusOK {
		t.Fatalf("second status = %d", res.StatusCode)
	}
	if !second.Cached {
		t.Fatal("identical resubmission not served from cache")
	}
	if first.Timings.SearchMS <= 0 {
		t.Fatalf("miss reports search_ms %v, want > 0", first.Timings.SearchMS)
	}
	checkHitTimings(t, second.Timings)
	if second.Repair == nil || second.Repair.Validated != first.Repair.Validated {
		t.Fatalf("cached repair half differs: %+v vs %+v", second.Repair, first.Repair)
	}
	if got := s.m.repairCacheHits.Load(); got != 1 {
		t.Fatalf("repairCacheHits = %d, want 1", got)
	}

	// Different advisor options must be a different cache key.
	req2 := &RepairRequest{Name: "dangling", Grammar: danglingElseSource(t), Repair: RepairOptions{MaxCandidates: 2}}
	var third RepairResponse
	if res := postRepair(t, ts, req2, &third); res.StatusCode != http.StatusOK {
		t.Fatalf("third status = %d", res.StatusCode)
	}
	if third.Cached {
		t.Fatal("different repair options served the cached report")
	}
}

// TestRepairAndAnalyzeCachesAreDisjoint: the same grammar through /v1/analyze
// and /v1/repair must not collide in the shared LRU.
func TestRepairAndAnalyzeCachesAreDisjoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	src := danglingElseSource(t)

	var ar AnalyzeResponse
	if res := postAnalyze(t, ts, &AnalyzeRequest{Name: "d", Grammar: src}, &ar); res.StatusCode != http.StatusOK {
		t.Fatalf("analyze status = %d", res.StatusCode)
	}
	var rr RepairResponse
	if res := postRepair(t, ts, &RepairRequest{Name: "d", Grammar: src}, &rr); res.StatusCode != http.StatusOK {
		t.Fatalf("repair status = %d", res.StatusCode)
	}
	if rr.Cached {
		t.Fatal("repair request hit the analyze cache entry")
	}
	if rr.Repair == nil {
		t.Fatal("repair half missing")
	}
}

// TestRepairMetrics: the cexd_repair_* counters appear on /metrics and move
// after a repair run.
func TestRepairMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	if res := postRepair(t, ts, &RepairRequest{Name: "d", Grammar: danglingElseSource(t)}, &RepairResponse{}); res.StatusCode != http.StatusOK {
		t.Fatalf("repair status = %d", res.StatusCode)
	}
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, metric := range []string{
		"cexd_repair_runs_total 1",
		"cexd_repair_candidates_total",
		"cexd_repair_validated_total",
		"cexd_repair_rejected_total",
		"cexd_repair_suggestions_total",
		"cexd_repair_cache_hits_total 0",
	} {
		if !strings.Contains(body, metric) {
			t.Errorf("/metrics missing %q", metric)
		}
	}
	if strings.Contains(body, "cexd_repair_validated_total 0\n") {
		t.Error("repair run validated nothing on the golden grammar")
	}
}

// TestRepairInvalidOptions: negative advisor options are a 422, not a crash.
func TestRepairInvalidOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	req := &RepairRequest{Name: "d", Grammar: danglingElseSource(t), Repair: RepairOptions{RepairBudget: -1}}
	var er ErrorResponse
	if res := postRepair(t, ts, req, &er); res.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", res.StatusCode)
	}
	if er.Code != "invalid_options" {
		t.Fatalf("code = %q, want invalid_options", er.Code)
	}
}

// TestRepairNoConflicts: an LALR(1) grammar yields an empty advisory report,
// not an error.
func TestRepairNoConflicts(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var out RepairResponse
	if res := postRepair(t, ts, &RepairRequest{Name: "clean", Grammar: "s : 'a' s | 'b' ;"}, &out); res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", res.StatusCode)
	}
	if out.Repair == nil || out.Repair.ConflictCount != 0 || out.Repair.Candidates != 0 {
		t.Fatalf("unexpected advisory work: %+v", out.Repair)
	}
}

// TestRepairDeterministicAcrossParallelism: the endpoint's advisory report is
// identical at different request parallelism (rendered form compared, the
// same property the package-level matrix pins).
func TestRepairDeterministicAcrossParallelism(t *testing.T) {
	// CacheEntries < 0 disables the result cache: optionsKey ignores
	// parallelism (it never affects reports), so with caching on the second
	// request would be a trivial cache hit instead of a re-execution.
	_, ts := newTestServer(t, Config{Workers: 2, CacheEntries: -1})
	src := figure1Source(t)
	var renders []string
	for _, j := range []int{1, 8} {
		req := &RepairRequest{
			Name:    "figure1",
			Grammar: src,
			Options: AnalyzeOptions{Parallelism: j, NoTimeout: true, MaxConfigs: 500},
		}
		var out RepairResponse
		if res := postRepair(t, ts, req, &out); res.StatusCode != http.StatusOK {
			t.Fatalf("j=%d status = %d", j, res.StatusCode)
		}
		if out.Repair == nil {
			t.Fatalf("j=%d: no repair half", j)
		}
		renders = append(renders, out.Repair.Render())
	}
	if renders[0] != renders[1] {
		t.Errorf("advisory report differs across parallelism:\n--- j1 ---\n%s\n--- j8 ---\n%s", renders[0], renders[1])
	}
}
