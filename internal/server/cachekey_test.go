package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"lrcex/internal/persist"
)

// TestOptionsKeyCanonical: the result-cache key is a function of what the
// options do, not of how they are spelled. Every request body within one
// group lowers onto the same finder options and the same example filter and
// must share one key; any two groups differ in something that changes the
// answer and must not. Bodies are decoded like the handler decodes them, so
// fields this server no longer has (intra_workers, fifo_frontier) are
// dropped exactly as they are on the wire.
func TestOptionsKeyCanonical(t *testing.T) {
	groups := [][]string{
		{ // server defaults, both kinds
			`{}`,
			`{"kinds":[]}`,
			`{"kinds":["unifying","nonunifying"]}`,
			`{"kinds":["nonunifying","unifying"]}`,
			`{"kinds":["unifying","unifying","nonunifying"]}`,
			`{"parallelism":8,"deadline_ms":5000}`,
			`{"intra_workers":4}`,
			`{"fifo_frontier":true}`,
			`{"intra_workers":1,"fifo_frontier":false,"kinds":["nonunifying","unifying"]}`,
		},
		{`{"kinds":["unifying"]}`, `{"kinds":["unifying","unifying"]}`},
		{`{"kinds":["nonunifying"]}`, `{"kinds":["nonunifying"],"intra_workers":8}`},
		{ // no_timeout overrides both limits, so they cannot matter
			`{"no_timeout":true}`,
			`{"no_timeout":true,"per_conflict_timeout_ms":100}`,
			`{"no_timeout":true,"cumulative_timeout_ms":7,"per_conflict_timeout_ms":9}`,
			`{"no_timeout":true,"intra_workers":8,"fifo_frontier":true}`,
		},
		{
			`{"no_timeout":true,"max_configs":500}`,
			`{"no_timeout":true,"max_configs":500,"per_conflict_timeout_ms":3,"kinds":["nonunifying","unifying"]}`,
		},
		{`{"no_timeout":true,"max_configs":500,"kinds":["unifying"]}`},
		{`{"per_conflict_timeout_ms":100}`},
		{`{"per_conflict_timeout_ms":200}`},
		{`{"cumulative_timeout_ms":100}`},
		{`{"extended_search":true}`},
		{`{"max_configs":500}`},
		{`{"max_arena_bytes":4096}`},
	}
	owner := map[string]int{} // key -> group index
	for gi, group := range groups {
		var groupKey string
		for _, body := range group {
			var o AnalyzeOptions
			if err := json.Unmarshal([]byte(body), &o); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if err := o.validate(); err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			key := o.optionsKey()
			if groupKey == "" {
				groupKey = key
			} else if key != groupKey {
				t.Errorf("%s: key %q, but %s in the same group has %q", body, key, group[0], groupKey)
			}
		}
		if prev, ok := owner[groupKey]; ok {
			t.Errorf("groups %s and %s change the answer but share key %q", groups[prev][0], group[0], groupKey)
		}
		owner[groupKey] = gi
	}
}

// TestOldFormatJournalKeyMisses: a result persisted under the key format that
// still carried the fifo=/intra= fields must never answer a request after a
// restart. The planted record is deliberately wrong (no conflicts), so a hit
// on it would be visible; the request must instead miss, run the analysis,
// and then hit under the current key — also when it still sends the old
// fields.
func TestOldFormatJournalKeyMisses(t *testing.T) {
	dir := t.TempDir()
	src := figure1Source(t)
	fp, err := Fingerprint("figure1", src)
	if err != nil {
		t.Fatal(err)
	}
	planted, err := json.Marshal(&AnalyzeResponse{Name: "figure1", Fingerprint: fp})
	if err != nil {
		t.Fatal(err)
	}
	store, err := persist.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	oldKey := fp + "|pc=0|cum=0|nt=true|ext=false|max=500|arena=0|fifo=false|intra=0|kinds="
	if err := store.Append(persist.Record{Kind: recordKindResult, Key: oldKey, Value: planted}); err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	s, ts := newDurableServer(t, dir, Config{})
	if got := s.per.loaded.Load(); got != 1 {
		t.Fatalf("loaded %d records, want the planted one", got)
	}
	post := func(options string) AnalyzeResponse {
		t.Helper()
		body, err := json.Marshal(map[string]any{"name": "figure1", "grammar": src, "options": json.RawMessage(options)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", options, res.StatusCode)
		}
		var out AnalyzeResponse
		if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	first := post(`{"no_timeout":true,"max_configs":500}`)
	if first.Cached || first.ConflictCount == 0 {
		t.Fatalf("served the old-format record: cached=%t, %d conflicts", first.Cached, first.ConflictCount)
	}
	again := post(`{"no_timeout":true,"max_configs":500,"fifo_frontier":false,"intra_workers":0}`)
	if !again.Cached || again.ConflictCount != first.ConflictCount {
		t.Fatalf("resubmission with stale fields: cached=%t, %d conflicts (want a hit with %d)",
			again.Cached, again.ConflictCount, first.ConflictCount)
	}
}
