package core

// Property tests for the frontier and the visited table.
//
// The heapFrontier's doc comment promises that its pop order — including the
// order among equal-cost configurations, which the cost-only comparison
// leaves entirely to sift history — is bit-identical to container/heap over
// the same Less. TestHeapFrontierMatchesContainerHeap checks exactly that: a
// reference frontier built on the real container/heap is driven through the
// same random push/pop interleavings and must return the identical *config
// pointers in the identical order. This is the property that keeps every
// counterexample report byte-identical to the pre-rewrite search core.

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
)

// refHeap is the reference: the actual standard-library heap over the same
// cost-only Less the slice implementation used.
type refHeap struct {
	items []*config
	peak  int
}

func (h *refHeap) Len() int           { return len(h.items) }
func (h *refHeap) Less(i, j int) bool { return h.items[i].cost < h.items[j].cost }
func (h *refHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *refHeap) Push(x interface{}) { h.items = append(h.items, x.(*config)) }
func (h *refHeap) Pop() interface{} {
	old := h.items
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return x
}

func (h *refHeap) push(c *config) {
	heap.Push(h, c)
	if len(h.items) > h.peak {
		h.peak = len(h.items)
	}
}

func (h *refHeap) pop() *config {
	if len(h.items) == 0 {
		return nil
	}
	return heap.Pop(h).(*config)
}

func TestHeapFrontierMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for round := 0; round < 300; round++ {
		var got heapFrontier
		got.reset()
		ref := &refHeap{}
		// Small cost universe so equal-cost ties are the common case — the
		// tie-break among equal costs is precisely what this test pins down.
		costSpan := 1 + rng.Intn(6)
		for step := 0; step < 400; step++ {
			if got.size() != len(ref.items) {
				t.Fatalf("round %d step %d: size %d != ref %d", round, step, got.size(), len(ref.items))
			}
			if rng.Intn(3) == 0 {
				g, w := got.pop(), ref.pop()
				if g != w {
					t.Fatalf("round %d step %d: pop returned different configuration (cost %v vs %v)",
						round, step, costOf(g), costOf(w))
				}
			} else {
				c := &config{cost: rng.Intn(costSpan)}
				got.push(c)
				ref.push(c)
			}
		}
		// Drain: the full remaining order must agree too.
		for {
			g, w := got.pop(), ref.pop()
			if g != w {
				t.Fatalf("round %d drain: pop returned different configuration", round)
			}
			if g == nil {
				break
			}
		}
		if got.peakSize() != ref.peak {
			t.Fatalf("round %d: peak %d != ref %d", round, got.peakSize(), ref.peak)
		}
	}
}

func costOf(c *config) interface{} {
	if c == nil {
		return nil
	}
	return c.cost
}

// TestVisitedTableMatchesModel drives the open-addressing visited table
// through random probe/record sequences against a reference model — a
// map[uint64][]*config with structural equality — and requires the same
// answer on every probe. The hash of each configuration is chosen by the
// test, not computed, so that every path through the probe loop is forced:
// distinct configurations sharing one full hash (the structural fallback),
// distinct hashes sharing one 32-bit tag (the full-hash check), hashes whose
// home is the last slot (probe wrap-around), enough distinct hashes for
// several growths, and later rounds that reuse the table after reset() from a
// grown size.
func TestVisitedTableMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	mem := &searchMem{}
	mem.resetSearch()

	type shape struct {
		items1, items2 []node
		orig1, orig2   int
		h              uint64
	}
	// build materializes a shape as a fresh configuration, splitting each
	// side at a random point between prepended and appended cells.
	build := func(s shape) *config {
		mkSide := func(items []node) side {
			k := rng.Intn(len(items))
			sd := sideOf(items[k], mem)
			for _, n := range items[k+1:] {
				sd = sd.withAppended(n, nil, mem)
			}
			for i := k - 1; i >= 0; i-- {
				sd = sd.withPrepended(items[i], nil, mem)
			}
			return sd
		}
		return &config{s1: mkSide(s.items1), s2: mkSide(s.items2), orig1: s.orig1, orig2: s.orig2}
	}
	refEqual := func(a, b *config) bool {
		if a.orig1 != b.orig1 || a.orig2 != b.orig2 {
			return false
		}
		return fmt.Sprint(a.s1.appendItems(nil), a.s2.appendItems(nil)) ==
			fmt.Sprint(b.s1.appendItems(nil), b.s2.appendItems(nil))
	}
	randItems := func() []node {
		items := make([]node, 1+rng.Intn(4))
		for i := range items {
			items[i] = node(rng.Intn(6))
		}
		return items
	}
	const sharedTag = uint64(0x5eed0000) << 32
	shapesFor := func(n int) []shape {
		out := make([]shape, n)
		for i := range out {
			s := shape{items1: randItems(), items2: randItems(), orig1: rng.Intn(3) - 1, orig2: rng.Intn(3) - 1}
			switch rng.Intn(4) {
			case 0: // one of a few full hashes shared by many shapes
				s.h = uint64(rng.Intn(5)) * 0x9e3779b97f4a7c15
			case 1: // one tag, many hashes
				s.h = sharedTag | uint64(rng.Uint32())
			case 2: // home slot is the last one at every size: probes wrap
				s.h = uint64(rng.Uint32())<<32 | 0xffffffff
			default:
				s.h = rng.Uint64()
			}
			out[i] = s
		}
		return out
	}

	var v visitedTable
	v.reset()
	for round, n := range []int{6000, 300, 4000} {
		if round > 0 {
			v.reset()
		}
		shapes := shapesFor(n)
		model := map[uint64][]*config{}
		for step := 0; step < 4*n; step++ {
			s := shapes[rng.Intn(len(shapes))]
			c := build(s)
			want := false
			for _, r := range model[s.h] {
				if refEqual(r, c) {
					want = true
					break
				}
			}
			slot, got := v.probe(s.h, c)
			if got != want {
				t.Fatalf("round %d step %d: probe = %v, model says %v", round, step, got, want)
			}
			if !got && rng.Intn(4) != 0 { // some probes only look
				v.record(slot, s.h, c)
				model[s.h] = append(model[s.h], c)
			}
		}
		// Every recorded configuration resolves, under any split.
		entries := 0
		for h, cs := range model {
			entries += len(cs)
			for _, c := range cs {
				if _, found := v.probe(h, c); !found {
					t.Fatalf("round %d: recorded configuration lost", round)
				}
			}
		}
		if len(v.entries) != entries || v.used != len(model) {
			t.Fatalf("round %d: %d entries over %d slots, model has %d over %d hashes",
				round, len(v.entries), v.used, entries, len(model))
		}
		if size := len(v.slots); size&(size-1) != 0 || 2*v.used > size || uint64(size-1) != v.mask {
			t.Fatalf("round %d: %d slots (mask %#x) for %d hashes", round, size, v.mask, v.used)
		}
		if round == 0 && len(v.slots) < 8*visitedMinSlots {
			t.Fatalf("round 0 grew only to %d slots; the test wants several rehashes", len(v.slots))
		}
	}
	// A reset table forgets everything.
	grown := len(v.slots)
	v.reset()
	if len(v.slots) > grown || v.used != 0 || len(v.entries) != 0 {
		t.Fatalf("reset left %d slots (was %d), %d used, %d entries", len(v.slots), grown, v.used, len(v.entries))
	}
	for _, s := range shapesFor(50) {
		if _, found := v.probe(s.h, build(s)); found {
			t.Fatal("reset table reported a hit")
		}
	}
}
