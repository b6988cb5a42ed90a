package lr

import (
	"math/bits"

	"lrcex/internal/grammar"
)

// computeLALR fills State.Lookahead for every item.
//
// In a state I, every closure item B -> . γ has the same lookahead: that of
// B in I, LA(B). Each item A -> α . B β of I contributes FIRST(β) to LA(B),
// and its own lookahead too when β is nullable. Unrolled through the closure
// items, that makes
//
//	LA(B) = spont(B) ∪ ⋃ { LA(k) : k ∈ kern(B) }
//
// for a terminal set spont(B) and a set kern(B) of I's kernel items, both
// found by one in-state fixpoint that needs no lookahead at all: the
// symbolic closure of I. One pass over I's items then gives every successor
// kernel item A -> α X . β in goto(I, X) its lookahead sources: the
// predecessor's lookahead when that is a kernel item, otherwise spont(A)
// spontaneously and LA(k) for every k in kern(A) by propagation. A worklist
// over dense kernel slot ids solves the propagation, and a closure item's
// lookahead is spont(B) ∪ LA(k) over kern(B).
//
// This is the least fixpoint that the textbook spontaneous-generation and
// propagation method (Aho et al., Algorithm 4.63) computes with one LR(1)
// closure per kernel item and a marker lookahead; the symbolic closure shares
// that work among a state's kernel items.
func (a *Automaton) computeLALR() {
	g := a.G
	n := len(a.States)

	// The items of state s occupy the dense positions [itemBase[s],
	// itemBase[s+1]) and its kernel items the kernel slots [slotBase[s],
	// slotBase[s+1]).
	itemBase := make([]int32, n+1)
	slotBase := make([]int32, n+1)
	maxKernel := 0
	for s, st := range a.States {
		itemBase[s+1] = itemBase[s] + int32(len(st.Items))
		slotBase[s+1] = slotBase[s] + int32(st.Kernel)
		maxKernel = max(maxKernel, st.Kernel)
	}
	sets := grammar.NewTermSets(int(itemBase[n]), g.NumTerminals())
	// la[slot] shares its words with the kernel item's entry in sets: every
	// set is sized for all terminals, so a union never reallocates it.
	la := make([]grammar.TermSet, slotBase[n])
	for s, st := range a.States {
		st.Lookahead = sets[itemBase[s]:itemBase[s+1]:itemBase[s+1]]
		copy(la[slotBase[s]:slotBase[s+1]], st.Lookahead[:st.Kernel])
	}
	// $ is spontaneously generated for the start item in state 0.
	la[0].Add(g.TermIndex(grammar.EOF))

	// Symbolic-closure scratch shared by all states, indexed by nonterminal:
	// spont[B], and kern[B] as a bitset over the state's kernel indices.
	// inState[B] holds 1 + the id of the last state with closure items of B.
	kw := (maxKernel + 63) / 64
	spont := grammar.NewTermSets(g.NumSymbols(), g.NumTerminals())
	kern := make([]uint64, g.NumSymbols()*kw)
	kernOf := func(b grammar.Sym) []uint64 { return kern[int(b)*kw : int(b+1)*kw] }
	inState := make([]int32, g.NumSymbols())
	type symEdge struct{ from, to grammar.Sym }
	var nullEdges []symEdge // LA(to) ⊇ LA(from) inside the current state

	// Propagation edges between kernel slots, and the kernel slots whose
	// lookahead flows into a closure item at a position.
	type edge struct{ from, to int32 }
	type inflow struct{ pos, slot int32 }
	prop := make([]edge, 0, itemBase[n])
	closureIn := make([]inflow, 0, itemBase[n])

	for s, st := range a.States {
		stamp := int32(s + 1)
		for _, it := range st.Items[st.Kernel:] {
			b := a.lhs(it)
			if inState[b] != stamp {
				inState[b] = stamp
				spont[b].Clear()
				clear(kernOf(b))
			}
		}
		nullEdges = nullEdges[:0]
		for idx, it := range st.Items {
			b := a.DotSym(it)
			if b == grammar.NoSym || inState[b] != stamp {
				continue // reduce item, terminal, or nonterminal without productions
			}
			spont[b].Union(a.RestFirst(it))
			if !a.RestNullable(it) {
				continue
			}
			if idx < st.Kernel {
				kernOf(b)[idx/64] |= 1 << (idx % 64)
			} else {
				nullEdges = append(nullEdges, symEdge{a.lhs(it), b})
			}
		}
		for changed := true; changed; {
			changed = false
			for _, e := range nullEdges {
				if spont[e.to].Union(spont[e.from]) {
					changed = true
				}
				to, from := kernOf(e.to), kernOf(e.from)
				for w := range to {
					if to[w]|from[w] != to[w] {
						to[w] |= from[w]
						changed = true
					}
				}
			}
		}

		base := slotBase[s]
		for idx, it := range st.Items {
			var b grammar.Sym
			if idx >= st.Kernel {
				// The closure item's lookahead is LA(b) for its LHS b.
				b = a.lhs(it)
				pos := itemBase[s] + int32(idx)
				sets[pos].Union(spont[b])
				forEachBit(kernOf(b), func(k int) {
					closureIn = append(closureIn, inflow{pos, base + int32(k)})
				})
			}
			x := a.DotSym(it)
			if x == grammar.NoSym {
				continue
			}
			tgt := a.States[st.Trans[x]]
			k, _ := tgt.HasItem(it + 1) // a successor item is a kernel item
			to := slotBase[tgt.ID] + int32(k)
			if idx < st.Kernel {
				prop = append(prop, edge{base + int32(idx), to})
				continue
			}
			la[to].Union(spont[b])
			forEachBit(kernOf(b), func(k int) {
				prop = append(prop, edge{base + int32(k), to})
			})
		}
	}

	// Compressed adjacency of the propagation graph, then a worklist to
	// fixpoint over kernel slots.
	start := make([]int32, len(la)+1)
	for _, e := range prop {
		start[e.from+1]++
	}
	for i := range la {
		start[i+1] += start[i]
	}
	succ := make([]int32, len(prop))
	// start[i] serves as i's fill cursor; afterwards it holds i's end, which
	// is i+1's start, so one shift restores the starts.
	for _, e := range prop {
		succ[start[e.from]] = e.to
		start[e.from]++
	}
	copy(start[1:], start[:len(la)])
	start[0] = 0
	inWork := make([]bool, len(la))
	work := make([]int32, len(la))
	for i := range work {
		work[i] = int32(i)
		inWork[i] = true
	}
	for len(work) > 0 {
		from := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[from] = false
		for _, to := range succ[start[from]:start[from+1]] {
			if la[to].Union(la[from]) && !inWork[to] {
				inWork[to] = true
				work = append(work, to)
			}
		}
	}

	for _, e := range closureIn {
		sets[e.pos].Union(la[e.slot])
	}
}

// lhs returns the left-hand side of an item's production.
func (a *Automaton) lhs(i Item) grammar.Sym { return a.G.Production(a.Prod(i)).LHS }

// forEachBit calls f with the index of every set bit of a bitset.
func forEachBit(set []uint64, f func(int)) {
	for w, word := range set {
		for word != 0 {
			f(w*64 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}
