package server

import (
	"fmt"
	"math/rand"
	"testing"
)

// modelLRU is a deliberately naive reference implementation: a slice ordered
// most-recently-used first. The property test below drives lru and the model
// with the same operation stream and demands identical observable behavior.
type modelLRU[V any] struct {
	max  int
	keys []string // front = MRU
	vals map[string]V

	hits, misses, evictions int64
}

func newModelLRU[V any](max int) *modelLRU[V] {
	return &modelLRU[V]{max: max, vals: make(map[string]V)}
}

func (m *modelLRU[V]) index(key string) int {
	for i, k := range m.keys {
		if k == key {
			return i
		}
	}
	return -1
}

func (m *modelLRU[V]) get(key string) (V, bool) {
	if i := m.index(key); i >= 0 {
		m.keys = append([]string{key}, append(append([]string{}, m.keys[:i]...), m.keys[i+1:]...)...)
		m.hits++
		return m.vals[key], true
	}
	m.misses++
	var zero V
	return zero, false
}

func (m *modelLRU[V]) add(key string, val V) {
	if m.max <= 0 {
		return
	}
	if i := m.index(key); i >= 0 {
		m.keys = append([]string{key}, append(append([]string{}, m.keys[:i]...), m.keys[i+1:]...)...)
		m.vals[key] = val
		return
	}
	m.keys = append([]string{key}, m.keys...)
	m.vals[key] = val
	for len(m.keys) > m.max {
		last := m.keys[len(m.keys)-1]
		m.keys = m.keys[:len(m.keys)-1]
		delete(m.vals, last)
		m.evictions++
	}
}

// TestCacheLRUProperty runs randomized get/add streams against both of the
// server's instantiations — the result cache's lru[*cachedReport] and the compile
// cache's lru[*compiledGrammar] — and the reference model, checking results,
// recency order, and counters after every operation.
func TestCacheLRUProperty(t *testing.T) {
	for _, cap := range []int{1, 2, 3, 7, 16} {
		cap := cap
		t.Run(fmt.Sprintf("cap%d", cap), func(t *testing.T) {
			t.Run("result", func(t *testing.T) {
				checkLRUProperty(t, cap, func(key string) *cachedReport { return &cachedReport{body: []byte(key)} })
			})
			t.Run("compile", func(t *testing.T) {
				checkLRUProperty(t, cap, func(key string) *compiledGrammar { return &compiledGrammar{name: key} })
			})
		})
	}
}

func checkLRUProperty[V comparable](t *testing.T, cap int, mk func(key string) V) {
	rng := rand.New(rand.NewSource(int64(0x5eed + cap)))
	c := newLRU[V](cap)
	m := newModelLRU[V](cap)
	keyspace := make([]string, 2*cap+3)
	vals := make(map[string]V, len(keyspace))
	for i := range keyspace {
		keyspace[i] = fmt.Sprintf("k%02d", i)
		vals[keyspace[i]] = mk(keyspace[i])
	}
	for op := 0; op < 4000; op++ {
		key := keyspace[rng.Intn(len(keyspace))]
		if rng.Intn(2) == 0 {
			got, ok := c.get(key)
			want, wok := m.get(key)
			if ok != wok || (ok && got != want) {
				t.Fatalf("op %d: get(%s) = (%v, %v), model (%v, %v)", op, key, got, ok, want, wok)
			}
		} else {
			c.add(key, vals[key])
			m.add(key, vals[key])
		}
		if got, want := c.keysMRU(), m.keys; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("op %d: recency order %v, model %v", op, got, want)
		}
		h, mi, ev := c.counters()
		if h != m.hits || mi != m.misses || ev != m.evictions {
			t.Fatalf("op %d: counters (%d,%d,%d), model (%d,%d,%d)", op, h, mi, ev, m.hits, m.misses, m.evictions)
		}
		if c.len() > cap {
			t.Fatalf("op %d: len %d exceeds capacity %d", op, c.len(), cap)
		}
	}
}

// TestCacheDisabled checks that max <= 0 turns the cache into a pure
// pass-through: adds are dropped, gets always miss.
func TestCacheDisabled(t *testing.T) {
	for _, max := range []int{0, -5} {
		c := newLRU[any](max)
		c.add("a", &AnalyzeResponse{})
		if _, ok := c.get("a"); ok {
			t.Fatalf("max=%d: get hit after add; want disabled cache to drop entries", max)
		}
		if c.len() != 0 {
			t.Fatalf("max=%d: len = %d, want 0", max, c.len())
		}
	}
}

// TestCacheRefreshOnAdd checks that re-adding an existing key updates the
// value in place without growing the cache or evicting.
func TestCacheRefreshOnAdd(t *testing.T) {
	c := newLRU[any](2)
	v1, v2 := &AnalyzeResponse{Name: "one"}, &AnalyzeResponse{Name: "two"}
	c.add("a", v1)
	c.add("b", v1)
	c.add("a", v2) // refresh: "a" becomes MRU with the new value
	if got, _ := c.get("a"); got != v2 {
		t.Fatalf("get(a) = %v, want refreshed value", got)
	}
	_, _, ev := c.counters()
	if ev != 0 {
		t.Fatalf("evictions = %d, want 0 (refresh must not evict)", ev)
	}
	c.add("c", v1) // now "b" is LRU and must go
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived eviction; want LRU evicted after refresh reordered a to MRU")
	}
}
