package core

import "lrcex/internal/faults"

// Arena allocation for the unifying search. Every object the search creates —
// cons cells, derivation trees, children slices, configurations — dies with
// the search (the winning derivation is deep-copied out, see cloneDeriv), so
// they are bump-allocated from block arenas owned by the per-worker scratch
// and recycled wholesale between conflicts. This turns the per-successor
// `new` traffic of the search into one allocation per arenaBlock objects in
// the steady state, without changing anything observable: arena placement
// affects neither expansion order nor dedup semantics.

// arenaBlock is the number of objects per arena block. Blocks are retained
// across resets, so a worker's arena footprint converges to the high-water
// mark of its conflicts.
const arenaBlock = 512

// arena is a typed bump allocator over fixed-size blocks.
type arena[T any] struct {
	blocks [][]T
	bi     int // index of the block currently being filled
	n      int // objects handed out from that block
}

// alloc returns a pointer to an uninitialized (possibly recycled) T. Callers
// must fully assign the object before use. Block growth carries a faults
// injection point (simulated allocator failure): it fires only when a fresh
// block is needed, so the steady-state bump path stays untouched, and with
// the subsystem disabled the check is a single atomic load per growth.
func (a *arena[T]) alloc() *T {
	if a.bi == len(a.blocks) {
		faults.PanicAt(faults.CoreArenaGrow)
		a.blocks = append(a.blocks, make([]T, arenaBlock))
	}
	b := a.blocks[a.bi]
	p := &b[a.n]
	if a.n++; a.n == len(b) {
		a.bi, a.n = a.bi+1, 0
	}
	return p
}

// reset recycles every block. Outstanding pointers become invalid for reuse
// by the next search; the search guarantees none survive (results are
// deep-copied before the arena owner moves to the next conflict).
func (a *arena[T]) reset() { a.bi, a.n = 0, 0 }

// ptrArena bump-allocates small []*Deriv slices (reduction children) from
// shared blocks. Requests larger than a block fall back to make, which keeps
// the allocator correct for pathological right-hand sides.
type ptrArena struct {
	blocks [][]*Deriv
	bi     int
	n      int
}

// alloc returns a length-k slice. The slice contents are stale until the
// caller assigns every element (reductions always do).
func (a *ptrArena) alloc(k int) []*Deriv {
	if k > arenaBlock {
		return make([]*Deriv, k)
	}
	if a.bi < len(a.blocks) && a.n+k > arenaBlock {
		a.bi, a.n = a.bi+1, 0
	}
	if a.bi == len(a.blocks) {
		a.blocks = append(a.blocks, make([]*Deriv, arenaBlock))
	}
	s := a.blocks[a.bi][a.n : a.n+k : a.n+k]
	if a.n += k; a.n == arenaBlock {
		a.bi, a.n = a.bi+1, 0
	}
	return s
}

func (a *ptrArena) reset() { a.bi, a.n = 0, 0 }

// searchMem is the reusable memory of one worker's unifying searches: the
// object arenas, the frontier, the visited table, and the materialization
// scratch. One searchMem serves one search at a time; the per-worker scratch
// owns it and resetSearch recycles it between conflicts.
type searchMem struct {
	icells   arena[icell]
	dcells   arena[dcell]
	derivs   arena[Deriv]
	children ptrArena
	configs  arena[config]

	heap    heapFrontier
	visited visitedTable

	ac allocCounter

	// scratch buffers for reductions that rebuild a front-stack prefix.
	nodeBuf  []node
	derivBuf []*Deriv

	// emitBuf receives one expansion's successor candidates before
	// admission; it is retained across conflicts like the arenas.
	emitBuf []config
}

// resetSearch prepares the memory for the next conflict: arenas rewind,
// the frontier and visited table empty (keeping capacity), and the
// allocation counters restart.
func (m *searchMem) resetSearch() {
	m.icells.reset()
	m.dcells.reset()
	m.derivs.reset()
	m.children.reset()
	m.configs.reset()
	m.heap.reset()
	m.visited.reset()
	m.ac = allocCounter{}
}

// newDeriv bump-allocates an interior derivation node.
func (m *searchMem) newDeriv(d Deriv) *Deriv {
	p := m.derivs.alloc()
	*p = d
	return p
}
