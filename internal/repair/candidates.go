package repair

import (
	"fmt"
	"strings"

	"lrcex/internal/core"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// Candidate kinds, in preference order: declarative fixes (precedence table,
// %prec override) rank above structural rewrites, duplicate removal last.
const (
	KindPrecedence    = "precedence"
	KindProdPrec      = "prec-override"
	KindDanglingElse  = "restructure-dangling-else"
	KindOperatorChain = "restructure-operator-chain"
	KindDropDuplicate = "drop-duplicate"
)

// kindRank orders candidate kinds for deterministic ranking.
func kindRank(kind string) int {
	switch kind {
	case KindPrecedence:
		return 0
	case KindProdPrec:
		return 1
	case KindDropDuplicate:
		return 2
	case KindDanglingElse:
		return 3
	case KindOperatorChain:
		return 4
	default:
		return 5
	}
}

// Candidate is one synthesized fix: an IR mutation rendered to a complete
// GDL source patch, plus the human-readable delta.
type Candidate struct {
	// ConflictIndex is the index into Table.Conflicts this candidate targets.
	ConflictIndex int `json:"conflict_index"`
	// ID is a stable per-grammar identifier, e.g. "c3.prec-left".
	ID string `json:"id"`
	// Kind classifies the fix (see the Kind* constants).
	Kind string `json:"kind"`
	// Prefers names the conflict action the fix selects: "shift", "reduce",
	// "error" (a %nonassoc rejection), or "" for structural rewrites.
	Prefers string `json:"prefers,omitempty"`
	// Summary is one sentence explaining the fix.
	Summary string `json:"summary"`
	// Directives are the source lines the patch adds relative to the
	// canonical print of the original grammar.
	Directives []string `json:"directives,omitempty"`
	// Patch is the full repaired grammar in canonical GDL.
	Patch string `json:"patch"`
}

// synthesize generates candidates for every conflict, in conflict order with
// a deterministic per-conflict generation order, capped at maxPerConflict
// each. examples may be nil or shorter than conflicts (entries align by
// index); origSrc is the canonical print of the unrepaired grammar used to
// compute Directives.
func synthesize(g *grammar.Grammar, a *lr.Automaton, conflicts []lr.Conflict, examples []*core.Example, origSrc string, maxPerConflict int) []Candidate {
	base := grammar.FromGrammar(g)
	var out []Candidate
	for ci, c := range conflicts {
		var ex *core.Example
		if ci < len(examples) {
			ex = examples[ci]
		}
		cands := synthesizeConflict(base, g, a, c, ci, ex, origSrc)
		if maxPerConflict > 0 && len(cands) > maxPerConflict {
			cands = cands[:maxPerConflict]
		}
		out = append(out, cands...)
	}
	return out
}

func synthesizeConflict(base *grammar.IR, g *grammar.Grammar, a *lr.Automaton, c lr.Conflict, ci int, ex *core.Example, origSrc string) []Candidate {
	var out []Candidate
	emit := func(id, kind, prefers, summary string, mut *grammar.IR) {
		g2, err := mut.Build()
		if err != nil {
			return
		}
		patch, err := gdl.Print(g2)
		if err != nil {
			return
		}
		out = append(out, Candidate{
			ConflictIndex: ci,
			ID:            fmt.Sprintf("c%d.%s", ci, id),
			Kind:          kind,
			Prefers:       prefers,
			Summary:       summary,
			Directives:    addedLines(origSrc, patch),
			Patch:         patch,
		})
	}

	if c.Kind == lr.ShiftReduce {
		p1id := a.Prod(c.Item1) // the reduce item's production
		p1 := g.Production(p1id)
		t := c.Sym
		tn := g.Name(t)
		switch ps := p1.PrecSym; {
		case ps == t:
			// The reduce production's own precedence terminal IS the
			// lookahead — the operator-chain shape (E -> E t E . t). An
			// associativity declaration for t alone resolves it.
			for _, v := range []struct {
				label, prefers string
				assoc          grammar.Assoc
			}{
				{"left", "reduce", grammar.AssocLeft},
				{"right", "shift", grammar.AssocRight},
				{"nonassoc", "error", grammar.AssocNone},
			} {
				mut := base.Clone()
				if mut.Syms[t].Prec == 0 {
					mut.Syms[t].Prec = maxPrecLevel(mut) + 1
				}
				mut.Syms[t].Assoc = v.assoc
				emit("prec-"+v.label, KindPrecedence, v.prefers,
					fmt.Sprintf("declare %%%s %s so state %d %ss on %s", v.label, tn, c.State, v.prefers, tn),
					mut)
			}
		case ps != grammar.NoSym:
			// Distinct token pair: order ps (the production's precedence
			// terminal) against t (the lookahead). ps below t shifts, t
			// below ps reduces — the classic dangling-else declaration is
			// the shift ordering with ps = 'then', t = 'else'.
			pn := g.Name(ps)
			mut := base.Clone()
			if declareAbove(mut, ps, t) {
				emit("order-shift", KindPrecedence, "shift",
					fmt.Sprintf("give %s lower precedence than %s so state %d shifts %s", pn, tn, c.State, tn),
					mut)
			}
			mut = base.Clone()
			if declareAbove(mut, t, ps) {
				emit("order-reduce", KindPrecedence, "reduce",
					fmt.Sprintf("give %s lower precedence than %s so state %d reduces %s", tn, pn, c.State, g.ProdString(p1id)),
					mut)
			}
		default:
			// The reduce production has no terminal to take precedence
			// from: attach an explicit %prec t override.
			if lv, as := g.Prec(t); lv > 0 {
				prefers := "error"
				switch as {
				case grammar.AssocLeft:
					prefers = "reduce"
				case grammar.AssocRight:
					prefers = "shift"
				}
				mut := base.Clone()
				mut.Prods[p1id-1].PrecSym = t
				emit("precsym", KindProdPrec, prefers,
					fmt.Sprintf("add %%prec %s to %s so the declared associativity of %s resolves state %d", tn, g.ProdString(p1id), tn, c.State),
					mut)
			} else {
				for _, v := range []struct {
					label, prefers string
					assoc          grammar.Assoc
				}{
					{"left", "reduce", grammar.AssocLeft},
					{"right", "shift", grammar.AssocRight},
				} {
					mut := base.Clone()
					mut.Syms[t].Prec = maxPrecLevel(mut) + 1
					mut.Syms[t].Assoc = v.assoc
					mut.Prods[p1id-1].PrecSym = t
					emit("precsym-"+v.label, KindProdPrec, v.prefers,
						fmt.Sprintf("declare %%%s %s and add %%prec %s to %s so state %d %ss", v.label, tn, tn, g.ProdString(p1id), c.State, v.prefers),
						mut)
				}
			}
		}
		if mut, summary := danglingElseRewrite(base, g, a, c); mut != nil {
			emit("factor-else", KindDanglingElse, "", summary, mut)
		}
		if mut, summary := operatorChainRewrite(base, g, a, c, ex); mut != nil {
			emit("stratify-chain", KindOperatorChain, "", summary, mut)
		}
		return out
	}

	// Reduce/reduce: precedence never resolves these (the resolver only
	// orders a production against a terminal), but a pair of literally
	// duplicate productions is a grammar bug with a mechanical fix.
	p1id, p2id := a.Prod(c.Item1), a.Prod(c.Item2)
	p1, p2 := g.Production(p1id), g.Production(p2id)
	if p1.LHS == p2.LHS && symsEqual(p1.RHS, p2.RHS) {
		drop := p2id
		if p1id > p2id {
			drop = p1id
		}
		mut := base.Clone()
		mut.Prods = append(mut.Prods[:drop-1:drop-1], mut.Prods[drop:]...)
		emit("drop-dup", KindDropDuplicate, "reduce",
			fmt.Sprintf("drop duplicate production %s (declared twice; the reduce/reduce conflict in state %d is between the two copies)", g.ProdString(drop), c.State),
			mut)
	}
	return out
}

// danglingElseRewrite recognizes the dangling-else shape directly from the
// conflict coordinates: the reduce item's production is a proper prefix of
// the shift item's production (same LHS, dot at the prefix boundary, the
// conflict terminal next), and both productions end in their own LHS. It
// rewrites the nonterminal into the classic matched/open factoring, which
// preserves the language while forcing each dangling t to pair with the
// nearest open prefix.
func danglingElseRewrite(base *grammar.IR, g *grammar.Grammar, a *lr.Automaton, c lr.Conflict) (*grammar.IR, string) {
	p1id, p2id := a.Prod(c.Item1), a.Prod(c.Item2)
	p1, p2 := g.Production(p1id), g.Production(p2id)
	d := a.Dot(c.Item2)
	s := p1.LHS
	if p2.LHS != s || d != len(p1.RHS) || len(p2.RHS) <= d || p2.RHS[d] != c.Sym {
		return nil, ""
	}
	if !symsEqual(p2.RHS[:d], p1.RHS) {
		return nil, ""
	}
	if len(p1.RHS) == 0 || p1.RHS[len(p1.RHS)-1] != s || p2.RHS[len(p2.RHS)-1] != s {
		return nil, ""
	}
	gamma := p1.RHS[:len(p1.RHS)-1]    // "if expr then"
	tau := p2.RHS[d+1 : len(p2.RHS)-1] // between t and the trailing LHS

	mut := base.Clone()
	matched := addNonterminal(mut, freshName(mut, g.Name(s), "_matched"))
	open := addNonterminal(mut, freshName(mut, g.Name(s), "_open"))

	sub := func(rhs []grammar.Sym, from, to grammar.Sym) []grammar.Sym {
		out := append([]grammar.Sym(nil), rhs...)
		for i, r := range out {
			if r == from {
				out[i] = to
			}
		}
		return out
	}
	mid := append([]grammar.Sym(nil), gamma...) // γ M t τ — the paired core
	mid = append(mid, matched, c.Sym)
	mid = append(mid, tau...)

	var prods []grammar.ProdIR
	var tailProds []grammar.ProdIR
	placed := false
	for i, p := range mut.Prods {
		pid := i + 1
		if p.LHS != s {
			prods = append(prods, p)
			continue
		}
		if !placed {
			placed = true
			prods = append(prods,
				grammar.ProdIR{LHS: s, RHS: []grammar.Sym{matched}, PrecSym: grammar.NoSym},
				grammar.ProdIR{LHS: s, RHS: []grammar.Sym{open}, PrecSym: grammar.NoSym})
			// matched: the fully-paired form, then every other alternative
			// of s with trailing recursion redirected to matched.
			tailProds = append(tailProds, grammar.ProdIR{LHS: matched, RHS: append(append([]grammar.Sym(nil), mid...), matched), PrecSym: grammar.NoSym})
		}
		if pid == p1id || pid == p2id {
			continue
		}
		tailProds = append(tailProds, grammar.ProdIR{LHS: matched, RHS: sub(p.RHS, s, matched), PrecSym: p.PrecSym})
	}
	// open: the unpaired prefix (which may end in anything), and the paired
	// form whose trailing statement is itself open.
	tailProds = append(tailProds,
		grammar.ProdIR{LHS: open, RHS: append(append([]grammar.Sym(nil), gamma...), s), PrecSym: grammar.NoSym},
		grammar.ProdIR{LHS: open, RHS: append(append([]grammar.Sym(nil), mid...), open), PrecSym: grammar.NoSym})
	mut.Prods = append(prods, tailProds...)
	return mut, fmt.Sprintf("factor %s into matched/open forms so every %s pairs with the nearest open %s",
		g.Name(s), g.Name(c.Sym), g.SymString(gamma))
}

// operatorChainRewrite recognizes a binary-operator chain E -> E t E from
// the conflict coordinates (the reduce production both starts and ends with
// its own LHS and the lookahead is its operator) and, when the derivation
// spine of the unifying counterexample confirms the ambiguous nonterminal is
// E itself, stratifies the chain: every E -> E op E alternative becomes
// E -> E op E', with the remaining alternatives demoted to a fresh E'. The
// rewrite keeps the language (every sentence keeps at least its left-leaning
// parse) while making all chained operators left-associative at one level.
func operatorChainRewrite(base *grammar.IR, g *grammar.Grammar, a *lr.Automaton, c lr.Conflict, ex *core.Example) (*grammar.IR, string) {
	p1id := a.Prod(c.Item1)
	p1 := g.Production(p1id)
	e := p1.LHS
	if len(p1.RHS) != 3 || p1.RHS[0] != e || p1.RHS[2] != e || p1.RHS[1] != c.Sym || !g.IsTerminal(c.Sym) {
		return nil, ""
	}
	// "identified from the derivation spine": a unifying counterexample
	// rooted at a different nonterminal means the ambiguity lives elsewhere.
	if ex != nil && ex.Kind.IsUnifying() && ex.Nonterminal != e {
		return nil, ""
	}
	isChain := func(p grammar.ProdIR) bool {
		return len(p.RHS) == 3 && p.RHS[0] == e && p.RHS[2] == e &&
			base.Syms[p.RHS[1]].Kind == grammar.Terminal
	}
	hasBase := false
	for _, p := range base.Prods {
		if p.LHS == e && !isChain(p) {
			hasBase = true
			break
		}
	}
	if !hasBase {
		return nil, ""
	}
	mut := base.Clone()
	prim := addNonterminal(mut, freshName(mut, g.Name(e), "_prim"))
	for i := range mut.Prods {
		p := &mut.Prods[i]
		if p.LHS != e {
			continue
		}
		if isChain(*p) {
			p.RHS[2] = prim
		} else {
			p.LHS = prim
		}
	}
	mut.Prods = append(mut.Prods, grammar.ProdIR{LHS: e, RHS: []grammar.Sym{prim}, PrecSym: grammar.NoSym})
	return mut, fmt.Sprintf("stratify the operator chain: %s keeps one left-recursive level per operator and a fresh %s holds the operands",
		g.Name(e), mut.Syms[prim].Name)
}

func symsEqual(a, b []grammar.Sym) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// addedLines returns the lines of patch that do not occur in orig, in patch
// order — the human-readable delta of a candidate. Both sources are
// canonical gdl.Print output, so line identity is meaningful.
func addedLines(orig, patch string) []string {
	have := make(map[string]int)
	for _, ln := range strings.Split(orig, "\n") {
		have[ln]++
	}
	var out []string
	for _, ln := range strings.Split(patch, "\n") {
		if strings.TrimSpace(ln) == "" {
			continue
		}
		if have[ln] > 0 {
			have[ln]--
			continue
		}
		out = append(out, strings.TrimSpace(ln))
	}
	return out
}
