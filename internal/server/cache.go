package server

import (
	"container/list"
	"sync"
)

// lru is a mutex-guarded LRU map from string keys to values of type V. The
// server keeps two: the result cache (lru[*cachedReport]) and the compile
// cache (lru[*compiledGrammar]); what each keys on is documented at
// Server.cache and Server.compile. Values are immutable once inserted, so a
// hit is a pointer share, not a deep copy.
type lru[V any] struct {
	mu        sync.Mutex
	max       int
	ll        *list.List // front = most recently used
	entries   map[string]*list.Element
	hits      int64
	misses    int64
	evictions int64
}

type lruEntry[V any] struct {
	key string
	val V
}

// newLRU returns an LRU holding at most max entries; max <= 0 disables
// caching (every lookup misses, every add is dropped).
func newLRU[V any](max int) *lru[V] {
	return &lru[V]{
		max:     max,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// get returns the cached value for key, refreshing its recency.
func (c *lru[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// add inserts (or refreshes) key, evicting the least recently used entry
// when the capacity is exceeded. Concurrent writers of the same key are
// fine: last write wins.
func (c *lru[V]) add(key string, val V) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = val
		return
	}
	c.entries[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry[V]).key)
		c.evictions++
	}
}

// len returns the current entry count.
func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// counters returns (hits, misses, evictions).
func (c *lru[V]) counters() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// dumpLRU returns the entries from least to most recently used — the replay
// order: re-adding them into an empty cache reproduces both the contents and
// the recency order (the persistence snapshot relies on this).
func (c *lru[V]) dumpLRU() []lruEntry[V] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]lruEntry[V], 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		out = append(out, *el.Value.(*lruEntry[V]))
	}
	return out
}

// keysMRU returns the keys from most to least recently used (tests).
func (c *lru[V]) keysMRU() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[V]).key)
	}
	return out
}
