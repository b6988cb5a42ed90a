package grammar

import "fmt"

// SymIR is one symbol of the mutable grammar representation. Its index in
// IR.Syms IS its Sym id; editors may rename symbols, edit precedence and
// append symbols, but never reorder or remove entries.
type SymIR struct {
	Name  string
	Kind  Kind
	Prec  int // 0 = undeclared
	Assoc Assoc
}

// ProdIR is one user production (the augmented production 0 is implicit and
// re-added by Build).
type ProdIR struct {
	LHS Sym
	RHS []Sym
	// PrecSym is the production's effective %prec terminal, or NoSym. Build
	// passes it through explicitly, so reordering productions cannot change
	// precedence resolution; editors that synthesize new productions leave
	// it NoSym to get the usual last-terminal inference.
	PrecSym Sym
}

// IR is a mutable copy of a Grammar that rebuilds to an identical one: Build
// replays the symbol table in id order into a fresh Builder, so every Sym id
// in the rebuilt grammar equals its IR index. Since the LALR construction is
// deterministic in symbol and production ids, an IR-roundtripped grammar has
// the same automaton, state numbering, and conflict coordinates as the
// original. Metamorphic mutants (internal/metamorph) and repair candidates
// (internal/repair) are both edits of an IR.
type IR struct {
	Syms  []SymIR
	Prods []ProdIR
	Start Sym
}

// FromGrammar copies g into a fresh IR.
func FromGrammar(g *Grammar) *IR {
	ir := &IR{Start: g.StartSym()}
	for id := 0; id < g.NumSymbols(); id++ {
		s := Sym(id)
		e := SymIR{Name: g.Name(s), Kind: g.KindOf(s)}
		if e.Kind == Terminal {
			e.Prec, e.Assoc = g.Prec(s)
		}
		ir.Syms = append(ir.Syms, e)
	}
	// Production 0 is the augmented START' -> start $; user productions
	// start at 1.
	for pid := 1; pid < g.NumProductions(); pid++ {
		p := g.Production(pid)
		ir.Prods = append(ir.Prods, ProdIR{
			LHS:     p.LHS,
			RHS:     append([]Sym(nil), p.RHS...),
			PrecSym: p.PrecSym,
		})
	}
	return ir
}

// Clone deep-copies the IR so an editor can change it freely.
func (ir *IR) Clone() *IR {
	out := &IR{
		Syms:  append([]SymIR(nil), ir.Syms...),
		Prods: make([]ProdIR, len(ir.Prods)),
		Start: ir.Start,
	}
	for i, p := range ir.Prods {
		out.Prods[i] = ProdIR{LHS: p.LHS, RHS: append([]Sym(nil), p.RHS...), PrecSym: p.PrecSym}
	}
	return out
}

// Build reconstructs a Grammar, verifying that interning reproduces every IR
// index (a renaming that collides two names would silently merge symbols and
// invalidate every downstream comparison — better to fail loudly here).
func (ir *IR) Build() (*Grammar, error) {
	b := NewBuilder()
	// Ids 0 ($) and 1 (START') are pre-interned by NewBuilder.
	for id := 2; id < len(ir.Syms); id++ {
		e := ir.Syms[id]
		var got Sym
		if e.Kind == Terminal {
			got = b.Terminal(e.Name)
		} else {
			got = b.Nonterminal(e.Name)
		}
		if got != Sym(id) {
			return nil, fmt.Errorf("grammar: interning %q gave id %d, want %d (name collision?)", e.Name, got, id)
		}
	}
	for id, e := range ir.Syms {
		if e.Kind == Terminal && e.Prec > 0 {
			b.SetPrec(Sym(id), e.Prec, e.Assoc)
		}
	}
	b.SetStart(ir.Start)
	for _, p := range ir.Prods {
		b.Add(p.LHS, p.RHS, p.PrecSym)
	}
	return b.Build()
}
