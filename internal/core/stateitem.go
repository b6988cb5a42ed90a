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

	// restFirst and restNullable describe, per LR item A -> α • X β (indexed
	// by lr.Item, so the table is as large as the grammar, not the
	// automaton), FIRST(β) and whether β is nullable. They make followL of
	// Section 4 — FIRST(β), plus the item's lookahead when β is nullable — a
	// table lookup instead of a fresh set per call (see followHas and
	// internFollow). Reduce items have no X and keep empty entries.
	restFirst    []grammar.TermSet
	restNullable []bool

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

	g.fwdTrans = make([]node, g.numNodes)
	g.revTrans = make([][]node, g.numNodes)
	g.prodSteps = make([][]node, g.numNodes)
	g.revProdSteps = make([][]node, g.numNodes)

	gr := a.G
	for _, st := range a.States {
		// Per-state index: items that have symbol X after the dot.
		byDotSym := make(map[grammar.Sym][]int, len(st.Items))
		for idx, it := range st.Items {
			if x := a.DotSym(it); x != grammar.NoSym {
				byDotSym[x] = append(byDotSym[x], idx)
			}
		}
		for idx, it := range st.Items {
			n := g.nodeOf(st.ID, idx)
			x := a.DotSym(it)
			if x == grammar.NoSym {
				g.fwdTrans[n] = noNode
				continue
			}
			tgtState := a.States[st.Trans[x]]
			tIdx, ok := tgtState.HasItem(it + 1)
			if !ok {
				g.fwdTrans[n] = noNode // unreachable for a well-formed automaton
			} else {
				m := g.nodeOf(tgtState.ID, tIdx)
				g.fwdTrans[n] = m
				g.revTrans[m] = append(g.revTrans[m], n)
			}
			if !gr.IsTerminal(x) {
				for _, pid := range gr.ProductionsOf(x) {
					cIdx, ok := st.HasItem(a.ItemOf(pid, 0))
					if !ok {
						continue
					}
					c := g.nodeOf(st.ID, cIdx)
					g.prodSteps[n] = append(g.prodSteps[n], c)
					g.revProdSteps[c] = append(g.revProdSteps[c], n)
				}
			}
		}
	}
	g.restFirst = grammar.NewTermSets(a.NumItems(), gr.NumTerminals())
	g.restNullable = make([]bool, a.NumItems())
	for pid := 0; pid < gr.NumProductions(); pid++ {
		rhs := gr.Production(pid).RHS
		// Right to left: β after dot k is X_{k+2} … X_n, i.e. the β of dot
		// k+1 with X_{k+2} in front.
		for dot := len(rhs) - 1; dot >= 0; dot-- {
			it := a.ItemOf(pid, dot)
			if dot == len(rhs)-1 {
				g.restNullable[it] = true
				continue
			}
			x, next := rhs[dot+1], it+1
			g.restFirst[it].Union(gr.First(x))
			if gr.Nullable(x) {
				g.restFirst[it].Union(g.restFirst[next])
				g.restNullable[it] = g.restNullable[next]
			}
		}
	}

	g.leafDerivs = make([]*Deriv, gr.NumSymbols())
	for i := range g.leafDerivs {
		g.leafDerivs[i] = leaf(grammar.Sym(i))
	}

	g.fp = g.fingerprint()
	return g
}

// fingerprint hashes the adjacency tables (FNV-1a). Recorded once by
// newGraph; assertImmutable recomputes it to spot-check that no search
// mutated the shared read-only structures.
func (g *graph) fingerprint() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	mix := func(v int64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime
		}
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
	return g.restFirst[it].Has(t) || g.restNullable[it] && la.Has(t)
}

// internFollow interns followL of item it under lookahead la and returns the
// handle. When β is not nullable followL is the precomputed FIRST(β) itself;
// otherwise the union is built in scratch, which the caller reuses across
// calls (the interner clones what it keeps).
func (g *graph) internFollow(in *grammar.TermSetInterner, it lr.Item, la grammar.TermSet, scratch *grammar.TermSet) int32 {
	if !g.restNullable[it] {
		return int32(in.Intern(g.restFirst[it]))
	}
	scratch.Set(g.restFirst[it])
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
