package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// precSource is a small expression grammar with a precedence declaration; its
// conflicts are resolved, so analyses are cheap. dropPrecSource is the same
// grammar with the %left line removed — a semantic mutation the canonical
// fingerprint must distinguish, unlike whitespace and comment churn.
const precSource = `
%token NUM
%left '+'
e : e '+' e | NUM ;
`

const dropPrecSource = `
%token NUM
e : e '+' e | NUM ;
`

// churn reformats a source without changing its canonical fingerprint.
func churn(src string) string {
	return "// churned copy\n\n" + strings.ReplaceAll(src, "\n", "\n\n") + "\n"
}

// TestCompileCache covers the compiled-grammar cache differentially: an
// identical-fingerprint resubmission with novel options misses the result
// cache but reuses the compiled tables (CompileCached, zero parse/table
// time), while a semantically mutated grammar compiles fresh. The hit/miss
// ledger is asserted through /metrics.
func TestCompileCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	var fresh AnalyzeResponse
	if res := postAnalyze(t, ts, &AnalyzeRequest{Name: "prec", Grammar: precSource}, &fresh); res.StatusCode != http.StatusOK {
		t.Fatalf("fresh analysis: status %d", res.StatusCode)
	}
	if fresh.CompileCached {
		t.Fatal("fresh analysis claims a compile-cache hit")
	}

	// Whitespace/comment churn keeps the fingerprint; novel options dodge the
	// result cache. The parse and build phases must be skipped outright.
	var hit AnalyzeResponse
	req := &AnalyzeRequest{Name: "prec", Grammar: churn(precSource),
		Options: AnalyzeOptions{MaxConfigs: 500}}
	if res := postAnalyze(t, ts, req, &hit); res.StatusCode != http.StatusOK {
		t.Fatalf("churned analysis: status %d", res.StatusCode)
	}
	if hit.Cached {
		t.Fatal("churned request with novel options hit the result cache")
	}
	if !hit.CompileCached {
		t.Fatal("identical-fingerprint resubmission missed the compile cache")
	}
	if hit.Fingerprint != fresh.Fingerprint {
		t.Fatalf("churn changed the fingerprint: %q vs %q", hit.Fingerprint, fresh.Fingerprint)
	}
	if hit.Timings.ParseMS != 0 || hit.Timings.TableMS != 0 {
		t.Fatalf("compile-cache hit still spent parse=%vms table=%vms",
			hit.Timings.ParseMS, hit.Timings.TableMS)
	}
	if hit.States != fresh.States || hit.ConflictCount != fresh.ConflictCount || hit.Resolved != fresh.Resolved {
		t.Fatalf("compile-cached analysis diverged: states %d/%d conflicts %d/%d resolved %d/%d",
			hit.States, fresh.States, hit.ConflictCount, fresh.ConflictCount, hit.Resolved, fresh.Resolved)
	}

	// Dropping the precedence declaration is a real mutation: new
	// fingerprint, fresh compilation, and now-unresolved conflicts.
	var mutant AnalyzeResponse
	if res := postAnalyze(t, ts, &AnalyzeRequest{Name: "prec", Grammar: dropPrecSource}, &mutant); res.StatusCode != http.StatusOK {
		t.Fatalf("drop-prec analysis: status %d", res.StatusCode)
	}
	if mutant.CompileCached {
		t.Fatal("drop-prec mutant hit the compile cache despite a new fingerprint")
	}
	if mutant.Fingerprint == fresh.Fingerprint {
		t.Fatal("drop-prec mutant kept the original fingerprint")
	}
	if mutant.ConflictCount <= fresh.ConflictCount {
		t.Fatalf("drop-prec mutant has %d conflicts, original %d — expected the mutation to surface conflicts",
			mutant.ConflictCount, fresh.ConflictCount)
	}

	if hits, misses, _ := s.compile.counters(); hits != 1 || misses != 2 {
		t.Fatalf("compile cache counters hits=%d misses=%d, want 1/2", hits, misses)
	}

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
		"cexd_compile_cache_hits_total 1",
		"cexd_compile_cache_misses_total 2",
		"cexd_compile_cache_entries 2",
		`cexd_analysis_phase_seconds_total{phase="table"}`,
	} {
		if !strings.Contains(scrape, want) {
			t.Fatalf("metrics scrape missing %q:\n%s", want, scrape)
		}
	}
}

// TestCompileCacheDisabled: an explicit negative capacity turns the compile
// cache off — every resubmission compiles fresh.
func TestCompileCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{CompileEntries: -1})

	var first, second AnalyzeResponse
	postAnalyze(t, ts, &AnalyzeRequest{Grammar: precSource}, &first)
	postAnalyze(t, ts, &AnalyzeRequest{Grammar: churn(precSource),
		Options: AnalyzeOptions{MaxConfigs: 500}}, &second)
	if second.CompileCached {
		t.Fatal("disabled compile cache served a hit")
	}
}

// TestCompileCacheLRU exercises the cache's own LRU mechanics without HTTP.
func TestCompileCacheLRU(t *testing.T) {
	c := newLRU[*compiledGrammar](2)
	a, b, d := &compiledGrammar{}, &compiledGrammar{}, &compiledGrammar{}
	c.add("a", a)
	c.add("b", b)
	if got, ok := c.get("a"); !ok || got != a {
		t.Fatal("expected a to be cached")
	}
	c.add("d", d) // evicts b (a was refreshed)
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.get("d"); !ok {
		t.Fatal("d should be cached")
	}
	if hits, misses, evictions := c.counters(); hits != 2 || misses != 1 || evictions != 1 {
		t.Fatalf("counters hits=%d misses=%d evictions=%d, want 2/1/1", hits, misses, evictions)
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}
