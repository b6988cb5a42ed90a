package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/gdl"
	"lrcex/internal/lr"
	"lrcex/internal/persist"
)

// persister bridges the server's in-memory LRUs and the internal/persist
// store. Inserts into the result, repair, and compile caches are journaled
// as they happen; a background snapshotter compacts the journal on interval
// and on graceful drain. The compiled-grammar cache is persisted as
// fingerprint → source (core.Compiled is pointer-rich), and re-compiled at
// boot — re-parsing the identical bytes replays the identical symbol
// interning, so a warm artifact is indistinguishable from a cold build.
//
// Every failure mode is absorbed: a corrupt or truncated store loads as a
// colder cache (skips counted, surfaced on /metrics and /healthz), a failed
// snapshot leaves the previous one intact (degraded reason until the next
// one succeeds), and a failed journal append costs at most that one entry's
// warmth. Persistence can slow a restart down; it can never take the
// service down.
type persister struct {
	store  *persist.Store
	limits gdl.Limits

	loaded        atomic.Int64 // records recovered at boot
	skipped       atomic.Int64 // records skipped at boot (corruption, skew, faults)
	snapshots     atomic.Int64 // successful snapshots
	snapFailures  atomic.Int64 // failed snapshots
	writeFailures atomic.Int64 // failed journal appends (entry lost until next snapshot)

	mu          sync.Mutex
	lastSnapErr error // non-nil ⇒ /healthz degraded reason
}

const (
	recordKindResult  = "result"
	recordKindCompile = "compile"
)

// newPersister opens (never wipes) the store under dir.
func newPersister(dir string, limits gdl.Limits) (*persister, error) {
	store, err := persist.Open(dir)
	if err != nil {
		return nil, err
	}
	return &persister{store: store, limits: limits}, nil
}

// load replays the store into the server's caches. Replay order is write
// order — snapshots are dumped least-recently-used first — so the rebuilt
// LRUs carry the same eviction order they were saved with. Undecodable or
// stale records (fingerprint mismatch after re-parse, unknown kind) are
// skipped and counted exactly like on-disk corruption: a cold entry, never
// a boot failure.
func (p *persister) load(s *Server) {
	recs, stats := p.store.Load()
	p.skipped.Add(int64(stats.Skipped))
	loaded := 0
	for _, rec := range recs {
		if p.loadRecord(s, rec) {
			loaded++
		} else {
			p.skipped.Add(1)
		}
	}
	p.loaded.Add(int64(loaded))
}

// loadRecord re-inserts one persisted record; reports whether it took.
func (p *persister) loadRecord(s *Server, rec persist.Record) (ok bool) {
	// A pathological persisted value (a hand-corrupted source that still
	// checksums, say) must not take the boot down: worst case it cost us one
	// warm entry.
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	switch rec.Kind {
	case recordKindResult:
		// One decode serves both wire types (an analysis record has no
		// "repair" field); the key, built by resultKey, says which one the
		// route serves.
		var resp RepairResponse
		if json.Unmarshal(rec.Value, &resp) != nil || resp.Fingerprint == "" {
			return false
		}
		var val any = &resp.AnalyzeResponse
		if strings.HasPrefix(rec.Key, repairKeyPrefix) {
			val = &resp
		}
		// The same constructor as a fresh insert: a record journaled before
		// entries were stored encoded (cached:false, real timings) serves
		// the same bytes as one written since.
		e, err := newCachedReport(val)
		if err != nil {
			return false
		}
		s.cache.add(rec.Key, e)
		return true
	case recordKindCompile:
		var src string
		if json.Unmarshal(rec.Value, &src) != nil || src == "" {
			return false
		}
		// The fingerprint must round-trip: a record whose source no longer
		// hashes to its key (bit-rot inside a valid checksum is impossible,
		// but version-skewed Limits or a doctored store are not) is stale.
		fp, err := gdl.Fingerprint(rec.Name, src, p.limits)
		if err != nil || fp != rec.Key {
			return false
		}
		g, err := gdl.ParseLimited(rec.Name, src, p.limits)
		if err != nil {
			return false
		}
		c := core.Compile(lr.BuildTable(lr.Build(g)))
		s.compile.add(fp, &compiledGrammar{g: g, c: c, name: rec.Name, src: src})
		return true
	default:
		return false
	}
}

// noteResult journals one result-cache insert (analysis or repair report) as
// the entry's encoded bytes.
func (p *persister) noteResult(key string, e *cachedReport) {
	if err := p.store.Append(persist.Record{Kind: recordKindResult, Key: key, Value: e.body}); err != nil {
		p.writeFailures.Add(1)
	}
}

// noteCompile journals one compile-cache insert as fingerprint → source.
func (p *persister) noteCompile(fp string, ce *compiledGrammar) {
	if ce.src == "" {
		return // nothing to rebuild from (defensive; all insert sites carry source)
	}
	body, err := json.Marshal(ce.src)
	if err != nil {
		p.writeFailures.Add(1)
		return
	}
	if err := p.store.Append(persist.Record{Kind: recordKindCompile, Key: fp, Name: ce.name, Value: body}); err != nil {
		p.writeFailures.Add(1)
	}
}

// snapshot compacts the store to the caches' current contents. The dump runs
// under the store's lock (no insert can slip between the dump and the
// journal truncation), least-recently-used first so a reload reproduces the
// eviction order.
func (p *persister) snapshot(s *Server) error {
	err := p.store.Snapshot(func() []persist.Record {
		var recs []persist.Record
		for _, e := range s.cache.dumpLRU() {
			recs = append(recs, persist.Record{Kind: recordKindResult, Key: e.key, Value: e.val.body})
		}
		for _, e := range s.compile.dumpLRU() {
			if e.val.src == "" {
				continue
			}
			body, merr := json.Marshal(e.val.src)
			if merr != nil {
				continue
			}
			recs = append(recs, persist.Record{Kind: recordKindCompile, Key: e.key, Name: e.val.name, Value: body})
		}
		return recs
	})
	p.mu.Lock()
	p.lastSnapErr = err
	p.mu.Unlock()
	if err != nil {
		p.snapFailures.Add(1)
		return err
	}
	p.snapshots.Add(1)
	return nil
}

// snapshotLoop is the background snapshotter: compact on interval until quit,
// then once more on the way out (the graceful-drain flush — Shutdown waits
// for it via wg before closing the store).
func (p *persister) snapshotLoop(s *Server, interval time.Duration, quit <-chan struct{}, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.snapshotTraced("interval"); err != nil {
				s.log.Error("persist snapshot failed", "err", err)
			}
		case <-quit:
			return
		}
	}
}

// reasons returns the persistence-related /healthz degradation reasons.
func (p *persister) reasons() []string {
	var out []string
	p.mu.Lock()
	lastErr := p.lastSnapErr
	p.mu.Unlock()
	if lastErr != nil {
		out = append(out, fmt.Sprintf("last state snapshot failed: %v", lastErr))
	}
	if n := p.skipped.Load(); n > 0 {
		out = append(out, fmt.Sprintf("%d corrupt persisted record(s) skipped at boot (cache booted colder)", n))
	}
	return out
}

// scrape samples the persistence gauges/counters for /metrics.
func (p *persister) scrape() persistScrape {
	p.mu.Lock()
	lastOK := p.lastSnapErr == nil
	p.mu.Unlock()
	return persistScrape{
		enabled:       true,
		loaded:        p.loaded.Load(),
		skipped:       p.skipped.Load(),
		snapshots:     p.snapshots.Load(),
		snapFailures:  p.snapFailures.Load(),
		writeFailures: p.writeFailures.Load(),
		bytesOnDisk:   p.store.SizeOnDisk(),
		lastOK:        lastOK,
	}
}
