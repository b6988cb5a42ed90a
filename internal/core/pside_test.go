package core

// Model-based property tests for the persistent cons-deque item sequences
// (pside.go): a naive slice implementation — the data structure the deque
// replaced — is driven through the same random action sequences, and every
// observable (length, materialized sequence, occurrence counts, end accessors,
// derivation lists, reductions) must agree. The rolling hash is additionally
// checked to be split-independent: any side holding the same logical sequence
// hashes identically, no matter how the sequence is divided between the front
// and back stacks.

import (
	"fmt"
	"math/rand"
	"testing"
)

// naiveSide is the reference model: plain slices, copied on every operation.
type naiveSide struct {
	items  []node
	derivs []*Deriv
}

func naiveOf(n node) naiveSide { return naiveSide{items: []node{n}} }

func (s naiveSide) withAppended(n node, d *Deriv) naiveSide {
	out := naiveSide{items: append(append([]node(nil), s.items...), n)}
	out.derivs = append([]*Deriv(nil), s.derivs...)
	if d != nil {
		out.derivs = append(out.derivs, d)
	}
	return out
}

func (s naiveSide) withPrepended(n node, d *Deriv) naiveSide {
	out := naiveSide{items: append([]node{n}, s.items...)}
	if d != nil {
		out.derivs = append([]*Deriv{d}, s.derivs...)
	} else {
		out.derivs = append([]*Deriv(nil), s.derivs...)
	}
	return out
}

func (s naiveSide) count(n node) int32 {
	var c int32
	for _, m := range s.items {
		if m == n {
			c++
		}
	}
	return c
}

func (s naiveSide) reduced(popItems, popDerivs int32, gotoNode node, tree *Deriv) (naiveSide, []*Deriv) {
	keep := int32(len(s.items)) - popItems
	out := naiveSide{items: append(append([]node(nil), s.items[:keep]...), gotoNode)}
	dk := int32(len(s.derivs)) - popDerivs
	children := append([]*Deriv(nil), s.derivs[dk:]...)
	out.derivs = append(append([]*Deriv(nil), s.derivs[:dk]...), tree)
	return out, children
}

// checkAgainstModel compares every observable of the persistent side with the
// naive model.
func checkAgainstModel(t *testing.T, step int, got side, want naiveSide) {
	t.Helper()
	if got.len() != int32(len(want.items)) {
		t.Fatalf("step %d: len = %d, want %d", step, got.len(), len(want.items))
	}
	items := got.appendItems(nil)
	for i, n := range want.items {
		if items[i] != n {
			t.Fatalf("step %d: items = %v, want %v", step, items, want.items)
		}
	}
	if got.numDerivs() != int32(len(want.derivs)) {
		t.Fatalf("step %d: numDerivs = %d, want %d", step, got.numDerivs(), len(want.derivs))
	}
	derivs := got.appendDerivs(nil)
	for i, d := range want.derivs {
		if derivs[i] != d {
			t.Fatalf("step %d: derivs disagree at %d", step, i)
		}
	}
	// Occurrence counts for every node in (and one node absent from) the
	// sequence.
	seen := map[node]bool{}
	for _, n := range want.items {
		if !seen[n] {
			seen[n] = true
			if g, w := got.count(n), want.count(n); g != w {
				t.Fatalf("step %d: count(%d) = %d, want %d", step, n, g, w)
			}
		}
	}
	if g := got.count(node(9999)); g != 0 {
		t.Fatalf("step %d: count(absent) = %d, want 0", step, g)
	}
	// End accessors.
	if g, w := got.first(), want.items[0]; g != w {
		t.Fatalf("step %d: first = %d, want %d", step, g, w)
	}
	if g, w := got.last(), want.items[len(want.items)-1]; g != w {
		t.Fatalf("step %d: last = %d, want %d", step, g, w)
	}
	if len(want.items) >= 2 {
		if g, w := got.secondLast(), want.items[len(want.items)-2]; g != w {
			t.Fatalf("step %d: secondLast = %d, want %d", step, g, w)
		}
	}
	for k := int32(0); k < int32(len(want.items)); k++ {
		if g, w := got.itemFromRight(k), want.items[int32(len(want.items))-1-k]; g != w {
			t.Fatalf("step %d: itemFromRight(%d) = %d, want %d", step, k, g, w)
		}
	}
}

// canonicalHash builds a fresh all-appended side holding seq and returns its
// hash: the canonical split (everything on the back stack) against which
// split-independence is checked.
func canonicalHash(seq []node, mem *searchMem) uint64 {
	s := sideOf(seq[0], mem)
	for _, n := range seq[1:] {
		s = s.withAppended(n, nil, mem)
	}
	return s.hash()
}

func TestSideMatchesNaiveModel(t *testing.T) {
	const (
		rounds   = 200
		steps    = 60
		universe = 7 // node ids 0..6, so duplicates are common
	)
	rng := rand.New(rand.NewSource(20150613)) // PLDI 2015
	mem := &searchMem{}
	for round := 0; round < rounds; round++ {
		mem.resetSearch()
		start := node(rng.Intn(universe))
		got, want := sideOf(start, mem), naiveOf(start)
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(4); {
			case op == 0: // prepend
				n := node(rng.Intn(universe))
				var d *Deriv
				if rng.Intn(2) == 0 {
					d = leaf(0)
				}
				got, want = got.withPrepended(n, d, mem), want.withPrepended(n, d)
			case op <= 2: // append (twice as likely, like the search)
				n := node(rng.Intn(universe))
				var d *Deriv
				if rng.Intn(2) == 0 {
					d = leaf(0)
				}
				got, want = got.withAppended(n, d, mem), want.withAppended(n, d)
			default: // reduce
				if got.len() < 2 {
					continue
				}
				popItems := int32(1 + rng.Intn(int(got.len()-1)))
				popDerivs := int32(0)
				if nd := got.numDerivs(); nd > 0 {
					popDerivs = int32(rng.Intn(int(nd) + 1))
				}
				gotoNode := node(rng.Intn(universe))
				tree := &Deriv{Sym: 0, Prod: 1, Children: make([]*Deriv, 0)}
				children := make([]*Deriv, popDerivs)
				got = got.reduced(popItems, popDerivs, gotoNode, tree, children, mem)
				var wantChildren []*Deriv
				want, wantChildren = want.reduced(popItems, popDerivs, gotoNode, tree)
				for i := range wantChildren {
					if children[i] != wantChildren[i] {
						t.Fatalf("round %d step %d: reduction children disagree at %d", round, step, i)
					}
				}
			}
			checkAgainstModel(t, step, got, want)
			// Split independence: the op-built side (arbitrary front/back
			// split) must hash like the canonical all-back side.
			if h, c := got.hash(), canonicalHash(want.items, mem); h != c {
				t.Fatalf("round %d step %d: hash %#x differs from canonical %#x for %v",
					round, step, h, c, want.items)
			}
		}
	}
}

// TestSideHashDistinguishesSequences checks the other direction on a small
// exhaustive universe: distinct short sequences get distinct hashes (the
// rolling hash is not required to be collision-free, but over 3^1..3^4 = 120
// sequences a collision would make dedup fall back to structural comparison
// constantly — and with this base none occurs).
func TestSideHashDistinguishesSequences(t *testing.T) {
	mem := &searchMem{}
	mem.resetSearch()
	seen := map[uint64]string{}
	var enumerate func(prefix []node)
	enumerate = func(prefix []node) {
		if len(prefix) > 0 {
			h := canonicalHash(prefix, mem)
			key := fmt.Sprint(prefix)
			if prev, ok := seen[h]; ok && prev != key {
				t.Fatalf("hash collision: %s and %s both hash to %#x", prev, key, h)
			}
			seen[h] = key
		}
		if len(prefix) == 4 {
			return
		}
		for n := node(0); n < 3; n++ {
			enumerate(append(prefix, n))
		}
	}
	enumerate(nil)
}

// TestVisitedTableCollisionFallback forces distinct configurations through
// the visited table under one deliberately shared hash key and checks that
// the structural-equality fallback keeps them apart: a recorded configuration
// is found again (whatever its front/back split), while a different
// configuration sharing the same 64-bit key is not.
func TestVisitedTableCollisionFallback(t *testing.T) {
	mem := &searchMem{}
	mem.resetSearch()

	mk := func(items1, items2 []node) *config {
		c := &config{orig1: 0, orig2: 0}
		c.s1 = sideOf(items1[0], mem)
		for _, n := range items1[1:] {
			c.s1 = c.s1.withAppended(n, nil, mem)
		}
		c.s2 = sideOf(items2[0], mem)
		for _, n := range items2[1:] {
			c.s2 = c.s2.withAppended(n, nil, mem)
		}
		return c
	}

	var v visitedTable
	v.reset()
	const h = uint64(0xdeadbeefcafef00d) // one shared bucket for everything below
	lookup := func(c *config) bool {
		_, found := v.probe(h, c)
		return found
	}
	record := func(c *config) {
		slot, found := v.probe(h, c)
		if found {
			t.Fatal("recording a configuration that is already present")
		}
		v.record(slot, h, c)
	}

	a := mk([]node{1, 2, 3}, []node{4, 5})
	if lookup(a) {
		t.Fatal("empty table reported a hit")
	}
	record(a)
	if !lookup(a) {
		t.Fatal("recorded configuration not found")
	}

	// Same logical sequences, different split: prepend-built s1. Structural
	// equality must still hold.
	aSplit := mk([]node{2, 3}, []node{4, 5})
	aSplit.s1 = aSplit.s1.withPrepended(1, nil, mem)
	if !lookup(aSplit) {
		t.Fatal("split variant of recorded configuration not found")
	}

	// Colliding keys, different structures: each must be kept distinct.
	cases := []*config{
		mk([]node{1, 2, 4}, []node{4, 5}), // item differs
		mk([]node{1, 2}, []node{4, 5}),    // length differs
		mk([]node{1, 2, 3}, []node{4, 6}), // other side differs
		mk([]node{4, 5}, []node{1, 2, 3}), // sides swapped
		{s1: a.s1, s2: a.s2, orig1: -1},   // stage marker differs
		{s1: a.s1, s2: a.s2, orig2: -1},   // other stage marker differs
	}
	for i, c := range cases {
		if lookup(c) {
			t.Fatalf("case %d: colliding but structurally different configuration reported as visited", i)
		}
		record(c)
	}
	// After recording, every one of them (and the original) resolves through
	// the collision chain.
	if !lookup(a) {
		t.Fatal("original lost after chaining collisions")
	}
	for i, c := range cases {
		if !lookup(c) {
			t.Fatalf("case %d: recorded colliding configuration not found", i)
		}
	}
}
