// Package lr constructs LALR(1) parser state machines: the LR(0) canonical
// collection, LALR(1) lookahead sets for every item (one symbolic closure per
// state, then propagation between kernel items over dense slot ids; see
// computeLALR), the parse table, and the shift/reduce and reduce/reduce
// conflicts that the counterexample finder explains.
package lr

import (
	"fmt"
	"strings"

	"lrcex/internal/grammar"
)

// Item identifies a production item (a production with a dot position) by a
// dense id across the whole grammar: item ids for production p occupy the
// contiguous range [itemBase(p), itemBase(p)+len(RHS)].
type Item int32

// NoItem marks the absence of an item.
const NoItem Item = -1

// itemTable precomputes the production and dot position of every item id,
// and FIRST(β) and nullable(β) of every item A -> α • X β.
type itemTable struct {
	base []int32 // production id -> first item id
	prod []int32 // item id -> production id
	dot  []int32 // item id -> dot position

	restFirst    []grammar.TermSet // item id -> FIRST(β)
	restNullable []bool            // item id -> β is nullable
}

func newItemTable(g *grammar.Grammar) *itemTable {
	t := &itemTable{base: make([]int32, g.NumProductions())}
	for p := 0; p < g.NumProductions(); p++ {
		t.base[p] = int32(len(t.prod))
		n := len(g.Production(p).RHS)
		for d := 0; d <= n; d++ {
			t.prod = append(t.prod, int32(p))
			t.dot = append(t.dot, int32(d))
		}
	}
	t.restFirst = grammar.NewTermSets(len(t.prod), g.NumTerminals())
	t.restNullable = make([]bool, len(t.prod))
	for p := 0; p < g.NumProductions(); p++ {
		rhs := g.Production(p).RHS
		// Right to left: β after dot d is X_{d+2} … X_n, i.e. the β of dot
		// d+1 with X_{d+2} in front. Reduce items have no X and keep the
		// empty, non-nullable entry.
		for d := len(rhs) - 1; d >= 0; d-- {
			it := t.base[p] + int32(d)
			if d == len(rhs)-1 {
				t.restNullable[it] = true
				continue
			}
			x := rhs[d+1]
			t.restFirst[it].Union(g.First(x))
			if g.Nullable(x) {
				t.restFirst[it].Union(t.restFirst[it+1])
				t.restNullable[it] = t.restNullable[it+1]
			}
		}
	}
	return t
}

func (t *itemTable) numItems() int { return len(t.prod) }

// ItemOf returns the item for production p with the dot before RHS[dot].
func (a *Automaton) ItemOf(p, dot int) Item { return Item(a.items.base[p] + int32(dot)) }

// Prod returns the production id of an item.
func (a *Automaton) Prod(i Item) int { return int(a.items.prod[i]) }

// Dot returns the dot position of an item.
func (a *Automaton) Dot(i Item) int { return int(a.items.dot[i]) }

// DotSym returns the symbol immediately after the dot, or NoSym when the dot
// is at the end of the production (a reduce item).
func (a *Automaton) DotSym(i Item) grammar.Sym {
	p := a.G.Production(a.Prod(i))
	d := a.Dot(i)
	if d >= len(p.RHS) {
		return grammar.NoSym
	}
	return p.RHS[d]
}

// PrevSym returns the symbol immediately before the dot, or NoSym when the
// dot is at position 0.
func (a *Automaton) PrevSym(i Item) grammar.Sym {
	d := a.Dot(i)
	if d == 0 {
		return grammar.NoSym
	}
	return a.G.Production(a.Prod(i)).RHS[d-1]
}

// RestFirst returns FIRST(β) for the item A -> α • X β: the terminals that
// can begin what follows the symbol after the dot. With RestNullable it gives
// followL of Section 4 — FIRST(β), plus the item's lookahead when β is
// nullable — without building a set. A reduce item has no X, and its entry
// is empty. The set is shared: callers must not modify it.
func (a *Automaton) RestFirst(i Item) grammar.TermSet { return a.items.restFirst[i] }

// RestNullable reports whether β of the item A -> α • X β derives the empty
// string; false for a reduce item.
func (a *Automaton) RestNullable(i Item) bool { return a.items.restNullable[i] }

// IsReduce reports whether the dot is at the end of the item's production.
func (a *Automaton) IsReduce(i Item) bool {
	return a.Dot(i) == len(a.G.Production(a.Prod(i)).RHS)
}

// IsKernel reports whether the item is a kernel item: dot > 0, or the start
// item START' -> . start $.
func (a *Automaton) IsKernel(i Item) bool {
	return a.Dot(i) > 0 || a.Prod(i) == 0
}

// NumItems returns the number of distinct items in the grammar.
func (a *Automaton) NumItems() int { return a.items.numItems() }

// ItemString renders an item as "lhs -> α • β".
func (a *Automaton) ItemString(i Item) string {
	p := a.G.Production(a.Prod(i))
	d := a.Dot(i)
	var sb strings.Builder
	sb.WriteString(a.G.Name(p.LHS))
	sb.WriteString(" ->")
	for k, s := range p.RHS {
		if k == d {
			sb.WriteString(" •")
		}
		sb.WriteByte(' ')
		sb.WriteString(a.G.Name(s))
	}
	if d == len(p.RHS) {
		sb.WriteString(" •")
	}
	return sb.String()
}

// ItemWithLookahead renders "lhs -> α • β  {a, b}" using the LALR lookahead
// set of the item in the given state.
func (a *Automaton) ItemWithLookahead(state int, i Item) string {
	la, ok := a.LookaheadOf(state, i)
	if !ok {
		return a.ItemString(i)
	}
	return fmt.Sprintf("%s  %s", a.ItemString(i), la.Format(a.G))
}
