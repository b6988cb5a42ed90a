package core

import (
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// node identifies a (state, item) pair — a vertex of both the
// lookahead-sensitive graph (Section 4) and the product parser (Section 5).
// Node ids are dense: node = stateBase[state] + index of the item within the
// state's item list.
type node int32

const noNode node = -1

// graph precomputes the lookup tables of Section 6 ("Data structures"):
// forward and reverse transitions and production steps between state-items.
// It is built once per grammar, before the first conflict is analyzed.
//
// Immutability invariant: after newGraph returns, every field of graph (and
// everything reachable through g.a — the automaton and grammar, whose
// analyses are all precomputed at construction) is read-only. The parallel
// FindAll workers share one graph without synchronization, so any mutation
// after construction is a data race; the race-detector tier of the verify
// path (go test -race ./internal/core/...) enforces this invariant, and
// assertImmutable spot-checks it cheaply in tests.
type graph struct {
	a         *lr.Automaton
	stateBase []int32 // state -> first node id
	numNodes  int

	// Flat per-node lookup tables. stateOf used to binary-search stateBase and
	// itemOf/lookaheadOf/dotSym re-derived the state on every call — a lookup
	// that sits under every expansion step of the unifying search and every
	// BFS edge of the path searches. The tables trade O(numNodes) construction
	// words for O(1) loads on those hot paths.
	states     []int32           // node -> state id
	items      []lr.Item         // node -> item
	lookaheads []grammar.TermSet // node -> static LALR lookahead of the item
	dotSyms    []grammar.Sym     // node -> symbol after the dot (NoSym for reduce items)

	// fwdTrans[n] is the successor on the item's dot symbol, or noNode for
	// reduce items.
	fwdTrans []node
	// revTrans[n] lists nodes m with fwdTrans[m] == n.
	revTrans [][]node
	// prodSteps[n] lists, for an item with nonterminal N after the dot, the
	// nodes (same state) of items N -> . gamma.
	prodSteps [][]node
	// revProdSteps[n] lists, for an item N -> . gamma, the nodes (same
	// state) of items with N after the dot.
	revProdSteps [][]node

	// leafDerivs interns one immutable leaf derivation per grammar symbol, so
	// the search's transition steps share leaves instead of allocating one
	// per edge. Leaves are immutable (Prod == -1, no children), so sharing
	// them — across configurations and across worker goroutines — is safe.
	leafDerivs []*Deriv

	// fp is the adjacency fingerprint recorded at construction; see
	// assertImmutable.
	fp uint64
}

// leafOf returns the interned leaf derivation of sym.
func (g *graph) leafOf(sym grammar.Sym) *Deriv { return g.leafDerivs[sym] }

func newGraph(a *lr.Automaton) *graph {
	g := &graph{a: a}
	g.stateBase = make([]int32, len(a.States)+1)
	for i, st := range a.States {
		g.stateBase[i+1] = g.stateBase[i] + int32(len(st.Items))
	}
	g.numNodes = int(g.stateBase[len(a.States)])

	g.states = make([]int32, g.numNodes)
	g.items = make([]lr.Item, g.numNodes)
	g.lookaheads = make([]grammar.TermSet, g.numNodes)
	g.dotSyms = make([]grammar.Sym, g.numNodes)
	for _, st := range a.States {
		base := g.stateBase[st.ID]
		for idx, it := range st.Items {
			n := base + int32(idx)
			g.states[n] = int32(st.ID)
			g.items[n] = it
			g.lookaheads[n] = st.Lookahead[idx]
			g.dotSyms[n] = a.DotSym(it)
		}
	}

	// Forward transitions and production steps first, the production steps
	// flat (node n's in prodFlat[prodStart[n]:prodStart[n+1]]); the reverse
	// tables are then counting-sorted from them. Each table's lists share
	// one backing array.
	gr := a.G
	g.fwdTrans = make([]node, g.numNodes)
	prodStart := make([]int32, g.numNodes+1)
	for n, x := range g.dotSyms {
		k := 0
		if x != grammar.NoSym && !gr.IsTerminal(x) {
			k = len(gr.ProductionsOf(x))
		}
		prodStart[n+1] = prodStart[n] + int32(k)
	}
	prodFlat := make([]node, 0, prodStart[g.numNodes])
	// closureNode[it] is the node of closure item it in the state being
	// linked, valid while closureIn[it] == that state's id + 1.
	closureNode := make([]node, a.NumItems())
	closureIn := make([]int32, a.NumItems())
	for _, st := range a.States {
		base := g.stateBase[st.ID]
		for idx := st.Kernel; idx < len(st.Items); idx++ {
			it := st.Items[idx]
			closureNode[it], closureIn[it] = node(base+int32(idx)), int32(st.ID+1)
		}
		for idx, it := range st.Items {
			n := node(base + int32(idx))
			g.fwdTrans[n] = noNode
			if x := g.dotSyms[n]; x != grammar.NoSym {
				tgtState := a.States[st.Trans[x]]
				if tIdx, ok := tgtState.HasItem(it + 1); ok {
					g.fwdTrans[n] = g.nodeOf(tgtState.ID, tIdx)
				}
				if !gr.IsTerminal(x) {
					for _, pid := range gr.ProductionsOf(x) {
						if c := a.ItemOf(pid, 0); closureIn[c] == int32(st.ID+1) {
							prodFlat = append(prodFlat, closureNode[c])
						}
					}
				}
			}
			prodStart[n+1] = int32(len(prodFlat))
		}
	}
	g.prodSteps = carve(prodFlat, prodStart)
	g.revTrans = invert(g.numNodes, func(n node) []node {
		if g.fwdTrans[n] == noNode {
			return nil
		}
		return g.fwdTrans[n : n+1]
	})
	g.revProdSteps = invert(g.numNodes, func(n node) []node { return g.prodSteps[n] })

	g.leafDerivs = make([]*Deriv, gr.NumSymbols())
	for i := range g.leafDerivs {
		g.leafDerivs[i] = leaf(grammar.Sym(i))
	}

	g.fp = g.fingerprint()
	return g
}

// carve splits flat into the lists flat[start[n]:start[n+1]], each capped
// at its own length.
func carve(flat []node, start []int32) [][]node {
	out := make([][]node, len(start)-1)
	for n := range out {
		out[n] = flat[start[n]:start[n+1]:start[n+1]]
	}
	return out
}

// invert returns the reverse of the adjacency succ over numNodes nodes:
// list m holds, in increasing order, every n whose succ(n) contains m.
func invert(numNodes int, succ func(node) []node) [][]node {
	start := make([]int32, numNodes+1)
	for n := node(0); int(n) < numNodes; n++ {
		for _, m := range succ(n) {
			start[m+1]++
		}
	}
	for i := 0; i < numNodes; i++ {
		start[i+1] += start[i]
	}
	flat := make([]node, start[numNodes])
	// start[m] serves as m's fill cursor; afterwards it holds m's end, which
	// is m+1's start, so one shift restores the starts.
	for n := node(0); int(n) < numNodes; n++ {
		for _, m := range succ(n) {
			flat[start[m]] = n
			start[m]++
		}
	}
	copy(start[1:], start[:numNodes])
	start[0] = 0
	return carve(flat, start)
}

// fingerprint hashes the adjacency tables, one FNV-1a step per 64-bit
// value. Recorded once by newGraph; assertImmutable recomputes it to
// spot-check that no search mutated the shared read-only structures. Each
// step (xor, then multiply by an odd prime) is a bijection of the running
// hash, so changing any single value always changes the result.
func (g *graph) fingerprint() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v int64) {
		h ^= uint64(v)
		h *= prime
	}
	for n := 0; n < g.numNodes; n++ {
		mix(int64(g.fwdTrans[n]))
		for _, m := range g.revTrans[n] {
			mix(int64(m))
		}
		mix(-1)
		for _, m := range g.prodSteps[n] {
			mix(int64(m))
		}
		mix(-2)
		for _, m := range g.revProdSteps[n] {
			mix(int64(m))
		}
		mix(-3)
	}
	return h
}

// assertImmutable reports whether the graph's adjacency tables still match
// their construction-time fingerprint. Searches must never mutate the shared
// graph; tests call this after concurrent FindAll runs.
func (g *graph) assertImmutable() bool { return g.fingerprint() == g.fp }

// nodeOf converts (state, item index) to a node id.
func (g *graph) nodeOf(state, itemIdx int) node {
	return node(g.stateBase[state] + int32(itemIdx))
}

// lookup converts (state, item) to a node id; the item must be in the state.
func (g *graph) lookup(state int, it lr.Item) (node, bool) {
	idx, ok := g.a.States[state].HasItem(it)
	if !ok {
		return noNode, false
	}
	return g.nodeOf(state, idx), true
}

// stateOf returns the state of a node (a table load; the construction-time
// binary search over stateBase lives on only in nodeOf's inverse direction).
func (g *graph) stateOf(n node) int { return int(g.states[n]) }

// itemOf returns the item of a node.
func (g *graph) itemOf(n node) lr.Item { return g.items[n] }

// lookaheadOf returns the static LALR lookahead set of the node's item.
func (g *graph) lookaheadOf(n node) grammar.TermSet { return g.lookaheads[n] }

// dotSym returns the symbol after the dot of the node's item.
func (g *graph) dotSym(n node) grammar.Sym { return g.dotSyms[n] }

// followHas reports whether terminal index t is in followL of item it under
// lookahead la (Grammar.FollowL), without building the set.
func (g *graph) followHas(it lr.Item, la grammar.TermSet, t int) bool {
	return g.a.RestFirst(it).Has(t) || g.a.RestNullable(it) && la.Has(t)
}

// internFollow interns followL of item it under lookahead la and returns the
// handle. When β is not nullable followL is the precomputed FIRST(β) itself;
// otherwise the union is built in scratch, which the caller reuses across
// calls (the interner clones what it keeps).
func (g *graph) internFollow(in *grammar.TermSetInterner, it lr.Item, la grammar.TermSet, scratch *grammar.TermSet) int32 {
	if !g.a.RestNullable(it) {
		return int32(in.Intern(g.a.RestFirst(it)))
	}
	scratch.Set(g.a.RestFirst(it))
	scratch.Union(la)
	return int32(in.Intern(*scratch))
}

// prevSym returns the symbol before the dot of the node's item.
func (g *graph) prevSym(n node) grammar.Sym { return g.a.PrevSym(g.itemOf(n)) }

// reverseReachableInto marks every node from which some target is reachable
// via forward transitions and production steps — the optimization of
// Section 6 ("Finding shortest lookahead-sensitive path"): only states that
// can reach the conflict item need be explored. The marks of several targets
// are the union of their single-target marks. When the caller-provided buffer
// (per-worker scratch) has sufficient capacity it is cleared and reused
// instead of reallocated.
func (g *graph) reverseReachableInto(seen []bool, targets ...node) []bool {
	if cap(seen) < g.numNodes {
		seen = make([]bool, g.numNodes)
	} else {
		seen = seen[:g.numNodes]
		clear(seen)
	}
	stack := make([]node, 0, len(targets))
	for _, t := range targets {
		if !seen[t] {
			seen[t] = true
			stack = append(stack, t)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range g.revTrans[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
		for _, m := range g.revProdSteps[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return seen
}
