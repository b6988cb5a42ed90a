package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"testing"

	"lrcex/internal/persist"
)

// trickyName is a grammar name that must survive the stored-bytes path: it
// spells both keys the cached body is built around, the characters
// encoding/json escapes as HTML, and non-ASCII text including U+2028, which
// encoding/json always escapes.
const trickyName = `x "cached":false,"timings":{"total_ms":1} <a>&b é 文法 ` + "\u2028"

// routeRequest is one /v1 request with a name, in the route's own type.
type routeRequest struct {
	path   string
	repair bool
	body   any
}

func routeRequests(name, src string) []routeRequest {
	return []routeRequest{
		{"/v1/analyze", false, &AnalyzeRequest{Name: name, Grammar: src}},
		{"/v1/repair", true, &RepairRequest{Name: name, Grammar: src}},
	}
}

// postRaw POSTs req as JSON and returns the status, the raw body, and the
// Content-Length header.
func postRaw(t *testing.T, ts *httptest.Server, path string, req any) (int, []byte, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, raw, res.Header.Get("Content-Length")
}

// stampedHit is what a cache hit must send for the report in miss, a fresh
// analysis body: the route's wire struct with Cached set and only TotalMS
// (copied from hit) in its timings, through json.NewEncoder.
func stampedHit(t *testing.T, miss, hit []byte, repair bool) []byte {
	t.Helper()
	var got struct {
		Timings Timings `json:"timings"`
	}
	if err := json.Unmarshal(hit, &got); err != nil {
		t.Fatal(err)
	}
	var resp RepairResponse
	var body any = &resp.AnalyzeResponse
	if repair {
		body = &resp
	}
	if err := json.Unmarshal(miss, body); err != nil {
		t.Fatal(err)
	}
	resp.Cached = true
	resp.Timings = Timings{TotalMS: got.Timings.TotalMS}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCacheHitBodyMatchesEncoder: on both routes, a hit's body equals the
// encoding/json output of the stamped struct, for a plain name and one that
// spells the keys the stored bytes are split at; Content-Length is the body
// length; and on /v1/repair the timings object is not the body's last field.
func TestCacheHitBodyMatchesEncoder(t *testing.T) {
	src := danglingElseSource(t)
	for _, name := range []string{"", trickyName} {
		// The name is not part of the cache key: a fresh server per name.
		_, ts := newTestServer(t, Config{})
		for _, rr := range routeRequests(name, src) {
			status, miss, _ := postRaw(t, ts, rr.path, rr.body)
			if status != http.StatusOK || bytes.Contains(miss, []byte(`,"cached":true,`)) {
				t.Fatalf("%s %q: miss status %d, body %.200s", rr.path, name, status, miss)
			}
			status, hit, clen := postRaw(t, ts, rr.path, rr.body)
			if status != http.StatusOK {
				t.Fatalf("%s %q: hit status %d", rr.path, name, status)
			}
			if want := stampedHit(t, miss, hit, rr.repair); !bytes.Equal(hit, want) {
				t.Errorf("%s %q: hit body differs from the encoded stamped report:\n got %s\nwant %s", rr.path, name, hit, want)
			}
			if clen != strconv.Itoa(len(hit)) {
				t.Errorf("%s %q: Content-Length %q, body %d bytes", rr.path, name, clen, len(hit))
			}
			var cached struct {
				Cached bool    `json:"cached"`
				Name   string  `json:"name"`
				T      Timings `json:"timings"`
			}
			if err := json.Unmarshal(hit, &cached); err != nil || !cached.Cached {
				t.Fatalf("%s %q: hit not flagged cached (err %v)", rr.path, name, err)
			}
			if name != "" && cached.Name != name {
				t.Errorf("%s: name %q came back as %q", rr.path, name, cached.Name)
			}
			checkHitTimings(t, cached.T)
			if rr.repair {
				ti, ri := bytes.Index(hit, []byte(`"timings":`)), bytes.Index(hit, []byte(`"repair":{`))
				if ti < 0 || ri < ti {
					t.Errorf("repair report: timings at %d, repair at %d; want repair after timings", ti, ri)
				}
			}
		}
	}
}

var totalMS = regexp.MustCompile(`"total_ms":[0-9.e+-]+`)

// maskTotal zeroes a body's total_ms, the one value two hits on the same
// entry may differ in.
func maskTotal(b []byte) []byte {
	return totalMS.ReplaceAll(b, []byte(`"total_ms":0`))
}

// TestJournaledResultFromEarlierFormatLoads: a result record as the journal
// wrote it before cached reports were stored encoded — cached:false, non-zero
// phase timings — loads, and its hits send the same bytes as a fresh insert's.
func TestJournaledResultFromEarlierFormatLoads(t *testing.T) {
	src := danglingElseSource(t)
	fp, err := Fingerprint(trickyName, src)
	if err != nil {
		t.Fatal(err)
	}
	for _, rr := range routeRequests(trickyName, src) {
		t.Run(rr.path, func(t *testing.T) {
			_, fresh := newTestServer(t, Config{})
			_, miss, _ := postRaw(t, fresh, rr.path, rr.body)
			_, want, _ := postRaw(t, fresh, rr.path, rr.body)

			var resp RepairResponse
			var val any = &resp.AnalyzeResponse
			var rep *RepairOptions
			if rr.repair {
				val, rep = &resp, &RepairOptions{}
			}
			if err := json.Unmarshal(miss, val); err != nil {
				t.Fatal(err)
			}
			if resp.Cached || resp.Timings.SearchMS <= 0 {
				t.Fatalf("precondition: miss report cached=%t search_ms=%v", resp.Cached, resp.Timings.SearchMS)
			}
			resp.Timings.TotalMS = 0 // inserted before the response stamped it
			old, err := json.Marshal(val)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			store, err := persist.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := resultKey(fp, AnalyzeOptions{}, rep)
			if err := store.Append(persist.Record{Kind: recordKindResult, Key: key, Value: old}); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			s, ts := newDurableServer(t, dir, Config{})
			if got := s.per.loaded.Load(); got != 1 {
				t.Fatalf("loaded %d records, want 1", got)
			}
			status, got, _ := postRaw(t, ts, rr.path, rr.body)
			if status != http.StatusOK {
				t.Fatalf("status %d", status)
			}
			if !bytes.Equal(maskTotal(got), maskTotal(want)) {
				t.Errorf("hit on the loaded record differs from a fresh insert's:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestSnapshotReloadServesIdenticalBytes: hits before a drain-time snapshot
// and after the reload send byte-identical bodies, on both routes.
func TestSnapshotReloadServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	reqs := routeRequests(trickyName, danglingElseSource(t))
	before := make([][]byte, len(reqs))

	s1, ts1 := newDurableServer(t, dir, Config{})
	for i, rr := range reqs {
		postRaw(t, ts1, rr.path, rr.body)
		_, before[i], _ = postRaw(t, ts1, rr.path, rr.body)
	}
	shutdownServer(t, s1, ts1)
	if s1.per.snapshots.Load() == 0 {
		t.Fatal("drain took no snapshot")
	}

	s2, ts2 := newDurableServer(t, dir, Config{})
	if s2.cache.len() != len(reqs) {
		t.Fatalf("reloaded %d result entries, want %d", s2.cache.len(), len(reqs))
	}
	for i, rr := range reqs {
		_, after, _ := postRaw(t, ts2, rr.path, rr.body)
		if !bytes.Equal(maskTotal(after), maskTotal(before[i])) {
			t.Errorf("%s: hit after reload differs:\n got %s\nwant %s", rr.path, after, before[i])
		}
		if !bytes.Contains(after, []byte(`"cached":true`)) {
			t.Errorf("%s: hit after reload not flagged cached", rr.path)
		}
	}
}
