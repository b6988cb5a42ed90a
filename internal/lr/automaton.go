package lr

import (
	"slices"

	"lrcex/internal/grammar"
)

// State is one LR(0) state enriched with LALR(1) lookahead sets.
type State struct {
	// ID is the dense state number; state 0 is the start state.
	ID int
	// AccessSym is the symbol on whose transition this state is entered
	// (every LR state has a unique accessing symbol); NoSym for state 0.
	AccessSym grammar.Sym
	// Items lists kernel items followed by closure items, each group sorted
	// by item id. Kernel holds the kernel prefix length.
	Items  []Item
	Kernel int
	// Lookahead is parallel to Items: the LALR(1) lookahead set of each item.
	Lookahead []grammar.TermSet
	// Trans maps a symbol to the successor state (shift for terminals, goto
	// for nonterminals).
	Trans map[grammar.Sym]int
}

// Automaton is the LALR(1) parser state machine for a grammar.
type Automaton struct {
	G      *grammar.Grammar
	States []*State

	items *itemTable
	// preds[s] lists the states with a transition into s (necessarily on
	// s.AccessSym), in increasing order.
	preds [][]int
}

// HasItem reports whether the state contains the item, and its index: a
// binary search of the kernel half of Items, then of the closure half.
func (s *State) HasItem(i Item) (int, bool) {
	if idx, ok := slices.BinarySearch(s.Items[:s.Kernel], i); ok {
		return idx, true
	}
	idx, ok := slices.BinarySearch(s.Items[s.Kernel:], i)
	return s.Kernel + idx, ok
}

// LookaheadOf returns the LALR lookahead set of item i in the given state.
func (a *Automaton) LookaheadOf(state int, i Item) (grammar.TermSet, bool) {
	s := a.States[state]
	idx, ok := s.HasItem(i)
	if !ok {
		return grammar.TermSet{}, false
	}
	return s.Lookahead[idx], true
}

// Goto returns the successor of state s on symbol x, or -1.
func (a *Automaton) Goto(s int, x grammar.Sym) int {
	if t, ok := a.States[s].Trans[x]; ok {
		return t
	}
	return -1
}

// Predecessors returns the states with a transition into s.
func (a *Automaton) Predecessors(s int) []int { return a.preds[s] }

// StartItem returns the item START' -> . start $.
func (a *Automaton) StartItem() Item { return a.ItemOf(0, 0) }

// AcceptItem returns the item START' -> start . $, whose shift of the
// end-of-input terminal accepts the input.
func (a *Automaton) AcceptItem() Item { return a.ItemOf(0, 1) }

// Build constructs the LALR(1) automaton for g: LR(0) canonical collection,
// then LALR lookaheads for every kernel and closure item.
func Build(g *grammar.Grammar) *Automaton {
	a := &Automaton{G: g, items: newItemTable(g)}
	a.buildLR0()
	a.computeLALR()
	return a
}

// appendKernelKey appends the map key of a sorted kernel to b.
func appendKernelKey(b []byte, kernel []Item) []byte {
	for _, i := range kernel {
		b = append(b, byte(i), byte(i>>8), byte(i>>16), byte(i>>24))
	}
	return b
}

// buildLR0 builds the canonical LR(0) collection breadth first, numbering
// states in discovery order with successors visited in symbol order.
func (a *Automaton) buildLR0() {
	g := a.G
	stateOf := make(map[string]int)
	var key []byte
	// Scratch shared by all states. expanded[x] holds 1 + the id of the last
	// state whose closure added the productions of nonterminal x; bucket[x]
	// collects the successor kernel on symbol x of the state being expanded.
	// closure holds the item list of the state being added.
	expanded := make([]int32, g.NumSymbols())
	bucket := make([][]Item, g.NumSymbols())
	var syms []grammar.Sym
	var closure []Item

	// newState adds the state with the given sorted kernel and map key, and
	// its LR(0) closure.
	newState := func(kernel []Item, key []byte, access grammar.Sym) int {
		id := len(a.States)
		items := append(closure[:0], kernel...)
		for w := 0; w < len(items); w++ {
			x := a.DotSym(items[w])
			if x == grammar.NoSym || g.IsTerminal(x) || expanded[x] == int32(id+1) {
				continue
			}
			expanded[x] = int32(id + 1)
			for _, pid := range g.ProductionsOf(x) {
				items = append(items, a.ItemOf(pid, 0))
			}
		}
		slices.Sort(items[len(kernel):])
		closure = items
		a.States = append(a.States, &State{
			ID:        id,
			AccessSym: access,
			Items:     slices.Clone(items),
			Kernel:    len(kernel),
		})
		a.preds = append(a.preds, nil)
		stateOf[string(key)] = id
		return id
	}

	key = appendKernelKey(key[:0], []Item{a.StartItem()})
	newState([]Item{a.StartItem()}, key, grammar.NoSym)

	for w := 0; w < len(a.States); w++ {
		st := a.States[w]
		syms = syms[:0]
		for _, it := range st.Items {
			x := a.DotSym(it)
			if x == grammar.NoSym {
				continue
			}
			if len(bucket[x]) == 0 {
				syms = append(syms, x)
			}
			bucket[x] = append(bucket[x], it+1)
		}
		slices.Sort(syms)
		st.Trans = make(map[grammar.Sym]int, len(syms))
		for _, x := range syms {
			kernel := bucket[x]
			slices.Sort(kernel)
			key = appendKernelKey(key[:0], kernel)
			target, ok := stateOf[string(key)]
			if !ok {
				target = newState(kernel, key, x)
			}
			st.Trans[x] = target
			a.preds[target] = append(a.preds[target], st.ID)
			bucket[x] = kernel[:0]
		}
	}
}
