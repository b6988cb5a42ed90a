package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lrcex/internal/faults"
)

// newDurableServer is newTestServer with a state directory and a snapshot
// interval long enough that only the drain-time snapshot ever fires — tests
// exercise the flush paths deliberately, not on a timer's whim.
func newDurableServer(t *testing.T, dir string, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.StateDir = dir
	if cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = time.Hour
	}
	return newTestServer(t, cfg)
}

func shutdownServer(t *testing.T, s *Server, ts *httptest.Server) {
	t.Helper()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// TestWarmRestartServesCached: analyze on one server, drain it, boot a second
// server over the same state dir — the resubmission must be a cache hit with
// the identical report, the compile cache must come back warm, and /metrics
// must account for the recovered records.
func TestWarmRestartServesCached(t *testing.T) {
	dir := t.TempDir()
	src := figure1Source(t)

	s1, ts1 := newDurableServer(t, dir, Config{})
	var first AnalyzeResponse
	if res := postAnalyze(t, ts1, &AnalyzeRequest{Name: "figure1", Grammar: src}, &first); res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if first.Cached {
		t.Fatal("fresh analysis flagged cached")
	}
	shutdownServer(t, s1, ts1)

	s2, ts2 := newDurableServer(t, dir, Config{})
	if got := s2.per.loaded.Load(); got < 2 {
		t.Fatalf("recovered %d records, want >= 2 (result + compile)", got)
	}
	if s2.compile.len() == 0 {
		t.Fatal("compile cache cold after warm restart")
	}
	var second AnalyzeResponse
	if res := postAnalyze(t, ts2, &AnalyzeRequest{Name: "figure1", Grammar: src}, &second); res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	if !second.Cached {
		t.Fatal("resubmission after restart not served from the recovered cache")
	}

	// The recovered report must be byte-identical to the original modulo the
	// volatile fields (Cached, timings).
	canonA, canonB := first, second
	canonA.Cached, canonB.Cached = false, false
	canonA.Timings, canonB.Timings = Timings{}, Timings{}
	ja, _ := json.Marshal(&canonA)
	jb, _ := json.Marshal(&canonB)
	if string(ja) != string(jb) {
		t.Fatalf("recovered report differs from original:\n%s\n%s", ja, jb)
	}

	res, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"cexd_persist_enabled 1",
		"cexd_persist_records_skipped_corrupt_total 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(body, "cexd_persist_records_loaded_total 2") &&
		!strings.Contains(body, "cexd_persist_records_loaded_total 3") {
		t.Errorf("/metrics cexd_persist_records_loaded_total not >= 2:\n%s", grepLines(body, "cexd_persist"))
	}
}

// TestPersistPreservesEvictionOrder drives the result cache and the PR-3
// reference model with the same randomized get/add stream, snapshots, reloads
// into a fresh server, and demands the recovered recency order match the
// model exactly — evictions after a restart must hit the same keys they
// would have before it.
func TestPersistPreservesEvictionOrder(t *testing.T) {
	for _, capN := range []int{1, 3, 8} {
		capN := capN
		t.Run(fmt.Sprintf("cap%d", capN), func(t *testing.T) {
			dir := t.TempDir()
			rng := rand.New(rand.NewSource(int64(0xd15c + capN)))

			s1 := New(Config{CacheEntries: capN, StateDir: dir, SnapshotInterval: time.Hour})
			model := newModelLRU[*AnalyzeResponse](capN)
			keys := make([]string, 12)
			for i := range keys {
				keys[i] = fmt.Sprintf("k%02d", i)
			}
			for op := 0; op < 400; op++ {
				k := keys[rng.Intn(len(keys))]
				if rng.Intn(3) == 0 {
					s1.cache.get(k)
					model.get(k)
				} else {
					val := &AnalyzeResponse{Name: k, Fingerprint: strings.Repeat("ab", 32)}
					s1.addResult(context.Background(), k, val)
					model.add(k, val)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := s1.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}

			s2 := New(Config{CacheEntries: capN, StateDir: dir, SnapshotInterval: time.Hour})
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				_ = s2.Shutdown(ctx)
			}()
			if got, want := s2.cache.keysMRU(), model.keys; fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("recovered MRU order %v, model %v", got, want)
			}
			if skipped := s2.per.skipped.Load(); skipped != 0 {
				t.Fatalf("clean store reload skipped %d records", skipped)
			}
		})
	}
}

// TestCorruptStoreBootsCold: a store full of garbage must load as a colder
// cache — server boots, serves, counts the skips, and /healthz names the
// degradation. Never a refusal to start.
func TestCorruptStoreBootsCold(t *testing.T) {
	dir := t.TempDir()
	// A journal with a valid header followed by garbage, and a snapshot that
	// is pure noise (bad magic).
	journal := append([]byte("LRCXST1\n"), []byte("\x00\x00\x12\x34 utter garbage beyond any checksum")...)
	if err := os.WriteFile(filepath.Join(dir, "cexd.journal"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "cexd.snap"), []byte("not a snapshot at all"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, ts := newDurableServer(t, dir, Config{})
	if s.per == nil {
		t.Fatal("persistence disabled by a corrupt store")
	}
	if got := s.per.skipped.Load(); got == 0 {
		t.Fatal("corrupt store loaded without counting skips")
	}

	res, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d, want 200 (degraded is still alive)", res.StatusCode)
	}
	var health struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.NewDecoder(res.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("status = %q, want degraded", health.Status)
	}
	found := false
	for _, r := range health.Reasons {
		if strings.Contains(r, "corrupt persisted record") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no corrupt-record reason in %v", health.Reasons)
	}

	// And the server still actually serves.
	var resp AnalyzeResponse
	if res := postAnalyze(t, ts, &AnalyzeRequest{Name: "figure1", Grammar: figure1Source(t)}, &resp); res.StatusCode != http.StatusOK {
		t.Fatalf("analyze on corrupt-store boot = %d", res.StatusCode)
	}
}

// TestDrainFlushesFinalSnapshot: satellite 6 — with the interval timer far in
// the future, the only snapshot is the graceful-drain flush, and it must
// capture everything inserted before Shutdown returned (the last scrape and
// the store agree).
func TestDrainFlushesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newDurableServer(t, dir, Config{})
	var resp AnalyzeResponse
	if res := postAnalyze(t, ts1, &AnalyzeRequest{Name: "figure1", Grammar: figure1Source(t)}, &resp); res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	shutdownServer(t, s1, ts1)
	if got := s1.per.snapshots.Load(); got != 1 {
		t.Fatalf("snapshots = %d, want exactly 1 (the drain flush)", got)
	}

	snap, err := os.Stat(filepath.Join(dir, "cexd.snap"))
	if err != nil {
		t.Fatalf("no snapshot after drain: %v", err)
	}
	if snap.Size() <= 8 {
		t.Fatalf("drain snapshot is empty (%d bytes)", snap.Size())
	}
	journal, err := os.Stat(filepath.Join(dir, "cexd.journal"))
	if err != nil {
		t.Fatal(err)
	}
	if journal.Size() != 8 {
		t.Fatalf("journal not compacted by drain snapshot: %d bytes, want 8 (header only)", journal.Size())
	}

	s2 := New(Config{StateDir: dir, SnapshotInterval: time.Hour})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
	}()
	if got := s2.per.loaded.Load(); got < 2 {
		t.Fatalf("drain snapshot recovered %d records, want >= 2", got)
	}
}

// grepLines returns the lines of s containing substr (test-failure context).
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestSnapshotFailureDegradesHealthz: a failed snapshot (injected persist
// write fault) must surface as a /healthz degraded reason and clear again
// once a snapshot succeeds.
func TestSnapshotFailureDegradesHealthz(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableServer(t, dir, Config{})
	s.addResult(context.Background(), "k", &AnalyzeResponse{Name: "k", Fingerprint: strings.Repeat("ab", 32)})

	faults.Enable(faults.Config{Seed: 3, Rates: map[faults.Point]faults.Rate{
		faults.PersistWrite: {Prob: 1},
	}})
	if err := s.per.snapshot(s); err == nil {
		faults.Disable()
		t.Fatal("snapshot under a certain write fault succeeded")
	}
	faults.Disable()

	reasons := s.degradedReasons()
	found := false
	for _, r := range reasons {
		if strings.Contains(r, "snapshot failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no snapshot-failure reason in %v", reasons)
	}
	if s.per.snapFailures.Load() != 1 {
		t.Fatalf("snapFailures = %d, want 1", s.per.snapFailures.Load())
	}

	// A later successful snapshot clears the standing reason.
	if err := s.per.snapshot(s); err != nil {
		t.Fatalf("snapshot after disabling faults: %v", err)
	}
	for _, r := range s.degradedReasons() {
		if strings.Contains(r, "snapshot failed") {
			t.Fatalf("stale snapshot-failure reason after success: %v", r)
		}
	}
}
