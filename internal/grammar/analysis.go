package grammar

import "fmt"

// computeNullable runs the standard fixpoint: a nonterminal is nullable when
// some production's RHS symbols are all nullable (including the empty RHS).
func (g *Grammar) computeNullable() {
	g.nullable = make([]bool, len(g.syms))
	for changed := true; changed; {
		changed = false
		for _, p := range g.prods {
			if g.nullable[p.LHS] {
				continue
			}
			all := true
			for _, s := range p.RHS {
				if !g.nullable[s] {
					all = false
					break
				}
			}
			if all {
				g.nullable[p.LHS] = true
				changed = true
				g.derivesE = true
			}
		}
	}
}

// computeFirst runs the standard FIRST fixpoint over dense terminal indices.
func (g *Grammar) computeFirst() {
	g.first = make([]TermSet, len(g.syms))
	for s := range g.syms {
		g.first[s] = NewTermSet(g.numTerms)
		if g.syms[s].kind == Terminal {
			g.first[s].Add(g.termIndex[s])
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.prods {
			dst := &g.first[p.LHS]
			for _, s := range p.RHS {
				if dst.Union(g.first[s]) {
					changed = true
				}
				if !g.nullable[s] {
					break
				}
			}
		}
	}
}

// FirstOfSeq returns FIRST of a symbol sequence, and whether the whole
// sequence is nullable.
func (g *Grammar) FirstOfSeq(syms []Sym) (TermSet, bool) {
	out := NewTermSet(g.numTerms)
	for _, s := range syms {
		out.Union(g.first[s])
		if !g.nullable[s] {
			return out, false
		}
	}
	return out, true
}

// FollowL computes the precise follow set followL(itm) of Section 4 for the
// item (prod, dot) whose current precise lookahead set is l: the set of
// terminals that can actually follow the nonterminal at the dot, given that l
// follows the whole production.
//
// With the production A -> X1...Xn and the dot before X_{k+1} (dot == k):
//
//	followL = FIRST(X_{k+2} ... Xn), plus l if that suffix is nullable.
//
// The returned set is freshly allocated.
func (g *Grammar) FollowL(prod, dot int, l TermSet) TermSet {
	p := g.prods[prod]
	rest := p.RHS[dot+1:]
	out, nullable := g.FirstOfSeq(rest)
	if nullable {
		out.Union(l)
	}
	return out
}

// MinTerminalExpansion returns, for every nonterminal, the length of the
// shortest terminal string it derives (or -1 if it derives no terminal
// string). Used by completion heuristics to pick the cheapest production.
func (g *Grammar) MinTerminalExpansion() []int {
	const inf = int(^uint(0) >> 2)
	min := make([]int, len(g.syms))
	for s := range g.syms {
		if g.syms[s].kind == Terminal {
			min[s] = 1
		} else {
			min[s] = inf
		}
	}
	for changed := true; changed; {
		changed = false
		for _, p := range g.prods {
			total := 0
			for _, s := range p.RHS {
				if min[s] >= inf {
					total = inf
					break
				}
				total += min[s]
			}
			if total < min[p.LHS] {
				min[p.LHS] = total
				changed = true
			}
		}
	}
	for s := range min {
		if min[s] >= inf {
			min[s] = -1
		}
	}
	return min
}

// WithStart rebuilds the grammar with a different start nonterminal, keeping
// every symbol id, production and precedence declaration. Counterexample validation
// uses this to check ambiguity of an inner nonterminal: a unifying
// counterexample is a derivation of the innermost conflicting nonterminal,
// not of the start symbol (Section 3.2).
func (g *Grammar) WithStart(start Sym) (*Grammar, error) {
	if g.syms[start].kind != Nonterminal {
		return nil, fmt.Errorf("grammar: WithStart(%s): not a nonterminal", g.Name(start))
	}
	b := NewBuilder()
	remap := make([]Sym, len(g.syms))
	for s, info := range g.syms {
		switch {
		case Sym(s) == EOF || Sym(s) == Start:
			remap[s] = Sym(s)
		case info.kind == Terminal:
			remap[s] = b.Terminal(info.name)
			if info.prec > 0 {
				b.SetPrec(remap[s], info.prec, info.assoc)
			}
		default:
			remap[s] = b.Nonterminal(info.name)
		}
	}
	b.SetStart(remap[start])
	for pid := 1; pid < len(g.prods); pid++ {
		p := g.prods[pid]
		rhs := make([]Sym, len(p.RHS))
		for i, r := range p.RHS {
			rhs[i] = remap[r]
		}
		prec := NoSym
		if p.PrecSym != NoSym {
			prec = remap[p.PrecSym]
		}
		b.Add(remap[p.LHS], rhs, prec)
	}
	return b.Build()
}

// Reachable returns the set of symbols reachable from the start symbol
// through productions. Unreachable nonterminals are legal but reported by
// linters built on top of this.
func (g *Grammar) Reachable() []bool {
	seen := make([]bool, len(g.syms))
	var visit func(Sym)
	visit = func(s Sym) {
		if seen[s] {
			return
		}
		seen[s] = true
		if g.syms[s].kind != Nonterminal {
			return
		}
		for _, pid := range g.byLHS[s] {
			for _, r := range g.prods[pid].RHS {
				visit(r)
			}
		}
	}
	visit(Start)
	return seen
}
