package core

import (
	"context"
	"errors"
	"slices"

	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// laspStep is one edge on a lookahead-sensitive path: a transition on Sym,
// or a production step (Sym == grammar.NoSym). Node is the vertex reached.
type laspStep struct {
	Node node
	Sym  grammar.Sym // transition symbol, or NoSym for a production step
}

// laspPath is a shortest lookahead-sensitive path from the start item to the
// conflict reduce item.
type laspPath struct {
	steps []laspStep // steps[0] is the start vertex (Sym == NoSym, meaningless)
}

// states returns the parser state visited after each transition, starting
// with the start state: the sequence [s0, s1, ..., sk] of Section 4 (Fig. 5
// uses [0, 6, 7, 9, 6, 7, 9, 10] for the dangling else).
func (p *laspPath) states(g *graph) []int {
	out := []int{0}
	for _, st := range p.steps[1:] {
		if st.Sym != grammar.NoSym {
			out = append(out, g.stateOf(st.Node))
		}
	}
	return out
}

// transitionSyms returns the symbols of the transition edges, in order: the
// prefix of the counterexample.
func (p *laspPath) transitionSyms() []grammar.Sym {
	var out []grammar.Sym
	for _, st := range p.steps[1:] {
		if st.Sym != grammar.NoSym {
			out = append(out, st.Sym)
		}
	}
	return out
}

// pendingRemainders returns, for each production step on the path that is
// still unfinished at the end, the remainder symbols after the nonterminal
// being expanded, innermost first. Completing the counterexample appends
// derivations of these remainders (Section 4, "completing all the
// productions made on the shortest lookahead-sensitive path").
func (p *laspPath) pendingRemainders(g *graph) [][]grammar.Sym {
	a := g.a
	gr := a.G
	// Replay the path, maintaining the stack of suspended items.
	type susp struct{ prod, dot int }
	var stack []susp
	var cur lr.Item = g.itemOf(p.steps[0].Node)
	for _, st := range p.steps[1:] {
		if st.Sym == grammar.NoSym {
			stack = append(stack, susp{a.Prod(cur), a.Dot(cur)})
			cur = g.itemOf(st.Node)
		} else {
			cur = cur + 1 // transition advances the dot
		}
	}
	var out [][]grammar.Sym
	for i := len(stack) - 1; i >= 0; i-- {
		rhs := gr.Production(stack[i].prod).RHS
		out = append(out, rhs[stack[i].dot+1:])
	}
	return out
}

// errUnreachableConflict reports an internal inconsistency: no
// lookahead-sensitive path reaches the conflict item with the conflict
// terminal (should be impossible for conflicts found by the table builder).
var errUnreachableConflict = errors.New("core: conflict item unreachable on any lookahead-sensitive path")

// laspCheckEvery is how many BFS expansions pass between context polls in
// the path searches (lasp, joint path, other-side replay). The searches are
// finite, but on large automata they can run long enough that cooperative
// cancellation matters.
const laspCheckEvery = 4096

// laspEntry is one BFS vertex of the lookahead-sensitive path search: a
// (node, interned-lookahead) pair plus the parent link and edge label needed
// for reconstruction.
type laspEntry struct {
	n      node
	la     int32 // interned precise-lookahead handle
	parent int32 // index into the order buffer, -1 for the root
	sym    grammar.Sym
}

// laspKey packs a BFS vertex into the uint64 visited-set key. Node ids are
// int32 and interner handles are dense indices bounded by the number of
// pushed vertices, so both halves fit exactly — unlike the unifying search's
// rolling hash, this key cannot collide.
func laspKey(n node, la int32) uint64 {
	return uint64(uint32(n))<<32 | uint64(uint32(la))
}

// laspTarget is one goal of the lookahead-sensitive path search: the node of
// a conflict's reduce item and the conflict terminal that must be in the
// precise lookahead set there.
type laspTarget struct {
	node node
	term grammar.Sym
}

// lookaheadSensitivePaths finds, for every target, a shortest path in the
// lookahead-sensitive graph from (start state, start item, {$}) to
// (target state, target item, L) with the target terminal in L — all targets
// in one breadth-first search (edges have unit weight). Only vertices whose
// node can reach some target node are expanded (Section 6's optimization,
// over the union of the targets' cones). For each target the first popped
// vertex that satisfies it ends that target's path; the search stops when
// every target is found or the queue drains. A target no path reaches is
// absent from the returned map. expanded counts the BFS pops. The BFS polls
// ctx periodically and returns its error when cancelled.
//
// Each target's path is exactly the one a BFS restricted to that target's own
// cone would find: no edge enters a cone from outside it (a predecessor of a
// cone node is itself in the cone), so the cone's vertices enter this
// search's queue in the same relative order and with the same first
// discoverers as in the cone-only search. The conflict terminal enters only
// the goal test, never the traversal.
func lookaheadSensitivePaths(ctx context.Context, g *graph, targets []laspTarget) (paths map[laspTarget]*laspPath, expanded int64, err error) {
	a := g.a
	gr := a.G
	paths = make(map[laspTarget]*laspPath, len(targets))

	// pending lists, per target node, the terminal indices not yet found.
	pending := make(map[node][]int, len(targets))
	roots := make([]node, 0, len(targets))
	for _, t := range targets {
		tIdx := gr.TermIndex(t.term)
		if _, ok := pending[t.node]; !ok {
			roots = append(roots, t.node)
		}
		if !slices.Contains(pending[t.node], tIdx) {
			pending[t.node] = append(pending[t.node], tIdx)
		}
	}
	left := 0
	for _, ts := range pending {
		left += len(ts)
	}
	eligible := g.reverseReachableInto(nil, roots...)

	interner := grammar.NewTermSetInterner()
	var follow grammar.TermSet // internFollow scratch
	eof := grammar.NewTermSet(gr.NumTerminals())
	eof.Add(gr.TermIndex(grammar.EOF))

	startNode, ok := g.lookup(0, a.StartItem())
	if !ok {
		return paths, 0, nil
	}
	rootLA := int32(interner.Intern(eof))
	visited := map[uint64]bool{laspKey(startNode, rootLA): true}
	order := []laspEntry{{n: startNode, la: rootLA, parent: -1, sym: grammar.NoSym}}

	for head := 0; head < len(order) && left > 0; head++ {
		if head%laspCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, expanded, err
			}
		}
		expanded++
		cur := order[head]
		n, laID := cur.n, cur.la
		la := interner.Get(int(laID))

		if ts := pending[n]; len(ts) > 0 {
			kept := ts[:0]
			for _, tIdx := range ts {
				if !la.Has(tIdx) {
					kept = append(kept, tIdx)
					continue
				}
				paths[laspTarget{n, gr.TermAt(tIdx)}] = reconstructLASP(order, head)
				left--
			}
			pending[n] = kept
		}

		push := func(m node, mla int32, sym grammar.Sym) {
			if !eligible[m] {
				return
			}
			k := laspKey(m, mla)
			if visited[k] {
				return
			}
			visited[k] = true
			order = append(order, laspEntry{n: m, la: mla, parent: int32(head), sym: sym})
		}

		// Transition edge: preserve the precise lookahead set.
		if m := g.fwdTrans[n]; m != noNode {
			push(m, laID, g.dotSym(n))
		}
		// Production steps: lookahead becomes followL(item).
		if steps := g.prodSteps[n]; len(steps) > 0 {
			fid := g.internFollow(interner, g.itemOf(n), la, &follow)
			for _, m := range steps {
				push(m, fid, grammar.NoSym)
			}
		}
	}
	return paths, expanded, nil
}

// reconstructLASP follows the parent links from order[found] back to the root
// and returns the path in forward order.
func reconstructLASP(order []laspEntry, found int) *laspPath {
	n := 0
	for i := found; i >= 0; i = int(order[i].parent) {
		n++
	}
	p := &laspPath{steps: make([]laspStep, n)}
	for i := found; i >= 0; i = int(order[i].parent) {
		n--
		p.steps[n] = laspStep{Node: order[i].n, Sym: order[i].sym}
	}
	return p
}

// completeStartingWith expands the pending remainders so that the first
// derived terminal is exactly t: nullable leading nonterminals that cannot
// start with t derive ε (and are dropped), and the first symbol that can
// start with t is expanded minimally down to t; everything after is kept
// abstract (Section 3.2: no more concrete than necessary). It returns nil
// and false if t cannot come first (possible only when t is EOF and the
// remainders are all nullable, in which case the empty completion is valid).
// busy is the recursion guard for expandStartingWith, supplied by the caller
// (per-worker scratch) so the map is allocated once per worker, not per call;
// expandStartingWith leaves it empty on every return path.
func completeStartingWith(gr *grammar.Grammar, remainders [][]grammar.Sym, t grammar.Sym, busy map[grammar.Sym]bool) ([]grammar.Sym, bool) {
	var out []grammar.Sym
	need := true
	for _, rem := range remainders {
		for i, x := range rem {
			if !need {
				out = append(out, rem[i:]...)
				break
			}
			if gr.IsTerminal(x) {
				if x != t {
					return nil, false
				}
				out = append(out, rem[i:]...)
				need = false
				break
			}
			if gr.First(x).Has(gr.TermIndex(t)) {
				exp, ok := expandStartingWith(gr, x, t, busy)
				if !ok {
					return nil, false
				}
				out = append(out, exp...)
				out = append(out, rem[i+1:]...)
				need = false
				break
			}
			if !gr.Nullable(x) {
				return nil, false
			}
			// Nullable and cannot start with t: derive ε, drop it.
		}
	}
	if need {
		// Every remainder derived ε; valid only when the conflict terminal is
		// the end of input.
		return out, t == grammar.EOF
	}
	return out, true
}

// expandStartingWith returns a minimal sentential form derived from
// nonterminal n that begins with terminal t. Leading nullable symbols that
// cannot start with t are dropped (they derive ε); the remaining symbols stay
// abstract. busy guards against left-recursive cycles.
func expandStartingWith(gr *grammar.Grammar, n, t grammar.Sym, busy map[grammar.Sym]bool) ([]grammar.Sym, bool) {
	if busy[n] {
		return nil, false
	}
	busy[n] = true
	defer delete(busy, n)
	for _, pid := range gr.ProductionsOf(n) {
		rhs := gr.Production(pid).RHS
		for i, x := range rhs {
			if gr.IsTerminal(x) {
				if x == t {
					return append([]grammar.Sym{}, rhs[i:]...), true
				}
				break
			}
			if gr.First(x).Has(gr.TermIndex(t)) {
				if sub, ok := expandStartingWith(gr, x, t, busy); ok {
					return append(sub, rhs[i+1:]...), true
				}
			}
			if !gr.Nullable(x) {
				break
			}
		}
	}
	return nil, false
}
