package grammar

import (
	"math/bits"
	"strings"
)

// TermSet is a bitset over dense terminal indices (see Grammar.TermIndex).
// The zero value is the empty set. TermSets are value types: methods that
// mutate take pointer receivers, and Clone produces an independent copy.
type TermSet struct {
	words []uint64
}

// NewTermSet returns an empty set sized for n terminals.
func NewTermSet(n int) TermSet {
	return TermSet{words: make([]uint64, (n+63)/64)}
}

// NewTermSets returns k empty sets sized for n terminals, carved from one
// backing array. Each set's capacity is capped at its own words, so growing
// one reallocates it rather than spilling into its neighbour.
func NewTermSets(k, n int) []TermSet {
	w := (n + 63) / 64
	back := make([]uint64, k*w)
	out := make([]TermSet, k)
	for i := range out {
		out[i] = TermSet{words: back[i*w : (i+1)*w : (i+1)*w]}
	}
	return out
}

func (s *TermSet) grow(i int) {
	need := i/64 + 1
	for len(s.words) < need {
		s.words = append(s.words, 0)
	}
}

// Add inserts terminal index i, growing the set if needed. It reports whether
// the set changed.
func (s *TermSet) Add(i int) bool {
	s.grow(i)
	w, b := i/64, uint64(1)<<(i%64)
	if s.words[w]&b != 0 {
		return false
	}
	s.words[w] |= b
	return true
}

// Has reports whether terminal index i is in the set.
func (s TermSet) Has(i int) bool {
	w := i / 64
	if w >= len(s.words) {
		return false
	}
	return s.words[w]&(1<<(i%64)) != 0
}

// Union adds every element of t to s, reporting whether s changed.
func (s *TermSet) Union(t TermSet) bool {
	changed := false
	for i, w := range t.words {
		if w == 0 {
			continue
		}
		s.grow(i*64 + 63)
		if s.words[i]|w != s.words[i] {
			s.words[i] |= w
			changed = true
		}
	}
	return changed
}

// Set makes s a copy of t, reusing s's storage when it is large enough.
func (s *TermSet) Set(t TermSet) {
	s.words = append(s.words[:0], t.words...)
}

// Clear removes every element, keeping s's storage.
func (s *TermSet) Clear() { clear(s.words) }

// Intersects reports whether s and t share any element.
func (s TermSet) Intersects(t TermSet) bool {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	for i := 0; i < n; i++ {
		if s.words[i]&t.words[i] != 0 {
			return true
		}
	}
	return false
}

// Intersection returns the set of elements in both s and t.
func (s TermSet) Intersection(t TermSet) TermSet {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	out := TermSet{words: make([]uint64, n)}
	for i := 0; i < n; i++ {
		out.words[i] = s.words[i] & t.words[i]
	}
	return out
}

// IsEmpty reports whether the set has no elements.
func (s TermSet) IsEmpty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Len returns the number of elements.
func (s TermSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Clone returns an independent copy of s.
func (s TermSet) Clone() TermSet {
	return TermSet{words: append([]uint64(nil), s.words...)}
}

// Equal reports whether s and t contain exactly the same elements.
func (s TermSet) Equal(t TermSet) bool {
	a, b := s.words, t.words
	if len(a) < len(b) {
		a, b = b, a
	}
	for i := range b {
		if a[i] != b[i] {
			return false
		}
	}
	for i := len(b); i < len(a); i++ {
		if a[i] != 0 {
			return false
		}
	}
	return true
}

// Elems returns the elements in increasing order.
func (s TermSet) Elems() []int { return s.AppendElems(nil) }

// AppendElems appends the elements to dst in increasing order and returns
// the extended slice, so a caller can reuse one buffer across sets.
func (s TermSet) AppendElems(dst []int) []int {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, wi*64+b)
			w &^= 1 << b
		}
	}
	return dst
}

// Hash returns a 64-bit FNV-style hash of the set contents, insensitive to
// trailing zero words.
func (s TermSet) Hash() uint64 {
	var h uint64 = 14695981039346656037
	for _, w := range s.words {
		if w == 0 {
			continue
		}
		h ^= w
		h *= 1099511628211
	}
	// Mix in the population count so {0} and {64} with equal single words in
	// different positions still differ (positions already differ via XOR of
	// distinct word values only if words differ; include index sensitivity):
	return h
}

// hashPositional is a position-sensitive hash used by the interner.
func (s TermSet) hashPositional() uint64 {
	var h uint64 = 14695981039346656037
	for i, w := range s.words {
		if w == 0 {
			continue
		}
		h ^= uint64(i+1) * 0x9e3779b97f4a7c15
		h *= 1099511628211
		h ^= w
		h *= 1099511628211
	}
	return h
}

// Format renders the set as {a, b, c} using the grammar's terminal names.
func (s TermSet) Format(g *Grammar) string {
	parts := make([]string, 0, s.Len())
	for _, i := range s.Elems() {
		parts = append(parts, g.Name(g.TermAt(i)))
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// TermSetInterner deduplicates TermSets so that set identity can be compared
// by integer handle. Used by the lookahead-sensitive graph, where vertices
// are (state, item, lookahead-set) triples.
type TermSetInterner struct {
	byHash map[uint64][]int
	sets   []TermSet
}

// NewTermSetInterner returns an empty interner.
func NewTermSetInterner() *TermSetInterner {
	return &TermSetInterner{byHash: make(map[uint64][]int)}
}

// Intern returns a stable handle for the set's contents, storing a clone the
// first time each distinct set is seen.
func (in *TermSetInterner) Intern(s TermSet) int {
	h := s.hashPositional()
	for _, id := range in.byHash[h] {
		if in.sets[id].Equal(s) {
			return id
		}
	}
	id := len(in.sets)
	in.sets = append(in.sets, s.Clone())
	in.byHash[h] = append(in.byHash[h], id)
	return id
}

// Get returns the set for a handle. The result must not be mutated.
func (in *TermSetInterner) Get(id int) TermSet { return in.sets[id] }

// Size returns the number of distinct sets interned.
func (in *TermSetInterner) Size() int { return len(in.sets) }
