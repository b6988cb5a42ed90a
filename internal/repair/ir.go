package repair

import (
	"fmt"

	"lrcex/internal/grammar"
)

// Candidate synthesis edits a grammar.IR. Repair candidates never depend on
// symbol-id stability (each patch is reparsed from source before
// validation), but the IR keeps it anyway, which makes the IR → gdl.Print
// pipeline trivially deterministic. The edits below keep precedence levels
// dense, the form gdl.Print accepts.

// maxPrecLevel returns the highest declared precedence level (0 when none).
func maxPrecLevel(r *grammar.IR) int {
	max := 0
	for _, e := range r.Syms {
		if e.Kind == grammar.Terminal && e.Prec > max {
			max = e.Prec
		}
	}
	return max
}

// openLevel makes room for a new precedence level at the given rank by
// shifting every declared level >= level up one, keeping levels dense (the
// form gdl.Print requires).
func openLevel(r *grammar.IR, level int) {
	for i := range r.Syms {
		if r.Syms[i].Kind == grammar.Terminal && r.Syms[i].Prec >= level {
			r.Syms[i].Prec++
		}
	}
}

// declareAbove gives lo and hi precedence levels with lo strictly below hi,
// minimally disturbing existing declarations. Newly declared terminals get
// %nonassoc (associativity is irrelevant across distinct levels, and
// %nonassoc is the conventional spelling for pure-ordering declarations).
// It reports false when both terminals already hold levels in the wrong
// order — reshuffling a user's existing table is not a fix we propose.
func declareAbove(r *grammar.IR, lo, hi grammar.Sym) bool {
	lp, hp := r.Syms[lo].Prec, r.Syms[hi].Prec
	switch {
	case lp > 0 && hp > 0:
		return lp < hp
	case lp > 0: // hi undeclared: slot it directly above lo
		openLevel(r, lp+1)
		r.Syms[hi].Prec, r.Syms[hi].Assoc = lp+1, grammar.AssocNone
	case hp > 0: // lo undeclared: slot it directly below hi
		openLevel(r, hp)
		r.Syms[lo].Prec, r.Syms[lo].Assoc = hp, grammar.AssocNone
	default: // both undeclared: two fresh levels on top
		m := maxPrecLevel(r)
		r.Syms[lo].Prec, r.Syms[lo].Assoc = m+1, grammar.AssocNone
		r.Syms[hi].Prec, r.Syms[hi].Assoc = m+2, grammar.AssocNone
	}
	return true
}

// addNonterminal appends a fresh nonterminal and returns its id.
func addNonterminal(r *grammar.IR, name string) grammar.Sym {
	s := grammar.Sym(len(r.Syms))
	r.Syms = append(r.Syms, grammar.SymIR{Name: name, Kind: grammar.Nonterminal})
	return s
}

// freshName derives an unused symbol name from base + suffix, appending a
// counter on collision. The result stays a GDL identifier as long as base is
// one (suffixes use only identifier characters).
func freshName(r *grammar.IR, base, suffix string) string {
	taken := make(map[string]bool, len(r.Syms))
	for _, e := range r.Syms {
		taken[e.Name] = true
	}
	name := base + suffix
	for n := 2; taken[name]; n++ {
		name = fmt.Sprintf("%s%s%d", base, suffix, n)
	}
	return name
}
