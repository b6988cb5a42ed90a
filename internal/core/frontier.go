package core

import "lrcex/internal/faults"

// The frontier and visited set of the unifying search.
//
// heapFrontier is the search's one priority queue: a concrete-typed replica
// of container/heap over cost-ordered configurations. Its sift-up/sift-down
// logic mirrors the standard library's algorithms operation for operation,
// so the pop order — including the order among equal-cost configurations,
// which the cost-only comparison leaves to sift history — is bit-identical
// to the container/heap frontier this file replaces. That equality is what
// keeps every report byte-identical to the pre-rewrite search core (locked
// by TestGoldenReports and property-tested against the real container/heap
// in frontier_test.go), while dropping the interface-boxed elements and
// per-comparison dynamic dispatch of the standard library.
//
// visitedTable replaces the map[string]bool dedup set: the key is the 64-bit
// combined rolling hash of a configuration (both item sequences plus the
// stage markers), and collisions fall back to a structural comparison —
// dedup semantics are exactly the slice implementation's, just without
// minting a byte string per push. The index is an open-addressing table of
// packed 8-byte slots and entries chain through a flat arena slice, so
// recording a configuration allocates nothing in the steady state.

// heapFrontier replicates container/heap exactly (Less is cost-only, Swap is
// element exchange, Push appends, Pop swaps the root to the end) with
// concrete types. Each slot carries its configuration's cost inline, so the
// sift loops compare costs within the slot array instead of dereferencing a
// scattered *config per comparison; the comparisons themselves — and hence
// the array evolution and the pop order — are those of container/heap.
type heapFrontier struct {
	items []heapSlot
	peak  int
}

// heapSlot is one heap element: the configuration and a copy of its cost
// (configurations are immutable once admitted, so the copy never goes stale).
type heapSlot struct {
	cost int
	c    *config
}

func (h *heapFrontier) reset() {
	clear(h.items)
	h.items = h.items[:0]
	h.peak = 0
}

func (h *heapFrontier) size() int     { return len(h.items) }
func (h *heapFrontier) peakSize() int { return h.peak }

// push is heap.Push: append, then sift up from the last position.
func (h *heapFrontier) push(c *config) {
	x := heapSlot{cost: c.cost, c: c}
	h.items = append(h.items, x)
	if len(h.items) > h.peak {
		h.peak = len(h.items)
	}
	// up(j = len-1)
	items := h.items
	j := len(items) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(x.cost < items[i].cost) {
			break
		}
		items[j] = items[i]
		j = i
	}
	items[j] = x
}

// pop is heap.Pop: swap root and last, sift the new root down over the
// shortened heap, then remove the last element.
func (h *heapFrontier) pop() *config {
	items := h.items
	n := len(items) - 1
	if n < 0 {
		return nil
	}
	items[0], items[n] = items[n], items[0]
	// down(i0 = 0, n)
	i := 0
	x := items[0]
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && items[j2].cost < items[j1].cost {
			j = j2
		}
		if !(items[j].cost < x.cost) {
			break
		}
		items[i] = items[j]
		i = j
	}
	items[i] = x
	c := items[n].c
	items[n] = heapSlot{} // release for GC / arena hygiene
	h.items = items[:n]
	return c
}

// visitedTable is the hashed dedup set of the unifying search: an
// open-addressing index over an entry arena. Each 8-byte slot packs the top
// 32 bits of a configuration hash (the tag) with the arena index of the head
// of that hash's chain; 0 marks an empty slot. Slots are linearly probed over
// a power-of-two table, so one probe sequence per push answers the lookup and
// yields the slot the record then fills. Entries carry their full 64-bit hash,
// which both disambiguates equal tags and lets the table rehash from the
// arena alone when it grows.
type visitedTable struct {
	slots   []uint64
	mask    uint64 // len(slots) - 1
	used    int    // occupied slots: distinct hashes recorded
	entries []visEntry
	buf     []node // scratch for structural comparisons
}

// visEntry is one recorded configuration; entries with equal hashes chain
// through next (index into the entries slice, -1 terminates).
type visEntry struct {
	c    *config
	h    uint64
	next int32
}

// packSlot encodes an occupied slot: h's tag above the chain head's entry
// index plus one (so no occupied slot is 0). slotHead decodes the index, -1
// for an empty slot.
func packSlot(h uint64, head int) uint64 { return h>>32<<32 | uint64(head+1) }
func slotHead(s uint64) int32            { return int32(uint32(s)) - 1 }

// visitedMinSlots is the smallest slot count a search starts from.
const visitedMinSlots = 1024

// reset empties the table, keeping the slot and entry arenas. The next
// search starts at the size the previous one ended with (consecutive
// conflicts of one grammar tend to search similar volumes, so this skips
// their regrowth), which also bounds the clearing cost by the previous
// search's own work.
func (v *visitedTable) reset() {
	n := visitedMinSlots
	for n < 2*v.used {
		n *= 2
	}
	v.resize(n)
	clear(v.entries)
	v.entries = v.entries[:0]
}

// resize empties the slot array at n slots (a power of two), reusing its
// backing store when it is large enough.
func (v *visitedTable) resize(n int) {
	if cap(v.slots) < n {
		v.slots = make([]uint64, n)
	} else {
		v.slots = v.slots[:n]
		clear(v.slots)
	}
	v.mask = uint64(n - 1)
	v.used = 0
}

// probe looks for a configuration structurally equal to c under hash h.
// Equality ignores the derivation lists and cost, exactly as the string key
// did: two configurations with the same item sequences and stage markers are
// the same search state. When none is found, slot is where record must file
// c: the slot of h's chain if h is already present, else the empty slot that
// ended the probe.
func (v *visitedTable) probe(h uint64, c *config) (slot uint64, found bool) {
	tag := h >> 32
	for i := h & v.mask; ; i = (i + 1) & v.mask {
		s := v.slots[i]
		if s == 0 {
			return i, false
		}
		if s>>32 != tag {
			continue
		}
		head := slotHead(s)
		if v.entries[head].h != h {
			continue // equal tags, different hashes
		}
		for j := head; j >= 0; j = v.entries[j].next {
			if v.equal(v.entries[j].c, c) {
				return i, true
			}
		}
		return i, false
	}
}

// record files c under hash h at the slot a probe for h just returned (with
// no record in between). Entry-arena growth carries a faults injection point
// (simulated table corruption); like the object arenas, the steady-state
// append path is untouched.
func (v *visitedTable) record(slot, h uint64, c *config) {
	next := slotHead(v.slots[slot])
	if len(v.entries) == cap(v.entries) {
		faults.PanicAt(faults.CoreVisitedGrow)
	}
	v.entries = append(v.entries, visEntry{c: c, h: h, next: next})
	v.slots[slot] = packSlot(h, len(v.entries)-1)
	if next < 0 {
		if v.used++; 2*v.used > len(v.slots) {
			v.grow()
		}
	}
}

// grow doubles the slot array and rehashes it from the entry arena. Entries
// are replayed in arena order, so each hash's slot ends up pointing at its
// newest entry — the chain head — while the chains themselves, which live in
// the entries, are untouched.
func (v *visitedTable) grow() {
	v.resize(2 * len(v.slots))
	for j := range v.entries {
		h := v.entries[j].h
		i := h & v.mask
		for s := v.slots[i]; s != 0 && v.entries[slotHead(s)].h != h; s = v.slots[i] {
			i = (i + 1) & v.mask
		}
		if v.slots[i] == 0 {
			v.used++
		}
		v.slots[i] = packSlot(h, j)
	}
}

func (v *visitedTable) equal(a, b *config) bool {
	if a.orig1 != b.orig1 || a.orig2 != b.orig2 {
		return false
	}
	var ok bool
	if ok, v.buf = sameItems(a.s1, b.s1, v.buf); !ok {
		return false
	}
	ok, v.buf = sameItems(a.s2, b.s2, v.buf)
	return ok
}
