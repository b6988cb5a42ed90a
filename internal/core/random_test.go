package core_test

import (
	"math/rand"
	"testing"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/engine"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// randomGrammar builds a random small grammar: 2–4 nonterminals over 3
// terminals, 1–3 productions each with RHS length 0–3. Returns nil when the
// grammar fails validation (e.g. a nonterminal without productions never
// happens here, but unproductive ones are fine).
func randomGrammar(r *rand.Rand) *grammar.Grammar {
	b := grammar.NewBuilder()
	nNts := 2 + r.Intn(3)
	nts := make([]grammar.Sym, nNts)
	names := []string{"s", "a", "b", "c"}
	for i := range nts {
		nts[i] = b.Nonterminal(names[i])
	}
	terms := []grammar.Sym{b.Terminal("x"), b.Terminal("y"), b.Terminal("z")}
	b.SetStart(nts[0])
	for _, nt := range nts {
		for k := 0; k < 1+r.Intn(3); k++ {
			n := r.Intn(4)
			rhs := make([]grammar.Sym, n)
			for i := range rhs {
				if r.Intn(3) == 0 {
					rhs[i] = nts[r.Intn(nNts)]
				} else {
					rhs[i] = terms[r.Intn(len(terms))]
				}
			}
			b.Add(nt, rhs, grammar.NoSym)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil
	}
	return g
}

// TestRandomGrammarInvariants fuzzes the whole pipeline on 400 random
// grammars: construction never panics, every conflict receives a
// counterexample, unifying examples satisfy the ambiguity-witness
// invariants, and the GLR oracle confirms a sample of them.
func TestRandomGrammarInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(20260705))
	iters := 400
	if testing.Short() {
		iters = 60
	}
	oracleChecked := 0
	for i := 0; i < iters; i++ {
		g := randomGrammar(r)
		if g == nil {
			continue
		}
		tbl := lr.BuildTable(lr.Build(g))
		f := core.NewFinder(tbl, core.Options{
			PerConflictTimeout: 50 * time.Millisecond,
			CumulativeTimeout:  500 * time.Millisecond,
		})
		exs, err := f.FindAll()
		if err != nil {
			t.Fatalf("iter %d: FindAll on\n%s: %v", i, g, err)
		}
		if len(exs) != len(tbl.Conflicts) {
			t.Fatalf("iter %d: %d examples for %d conflicts", i, len(exs), len(tbl.Conflicts))
		}
		for _, ex := range exs {
			if ex.Kind != core.Unifying {
				if len(ex.Prefix)+len(ex.After1) == 0 && ex.Conflict.Sym != grammar.EOF {
					t.Errorf("iter %d: empty nonunifying counterexample on\n%s", i, g)
				}
				continue
			}
			checkUnifying(t, g, ex)
			// Oracle-check a sample (WithStart + GLR can be slow).
			if oracleChecked < 40 {
				ambiguous, applicable := oracleConfirms(t, g, ex)
				if !applicable {
					continue
				}
				if !ambiguous {
					t.Errorf("iter %d: oracle refuted unifying example %q on\n%s",
						i, g.SymString(ex.Syms), g)
				}
				oracleChecked++
			}
		}
	}
	t.Logf("oracle spot-checked %d random unifying examples", oracleChecked)
}

// TestRandomGrammarSharedPaths checks the per-grammar shortest
// lookahead-sensitive path search against the per-conflict oracle on random
// grammars, whose small automata put many conflicts' cones on top of each
// other.
func TestRandomGrammarSharedPaths(t *testing.T) {
	r := rand.New(rand.NewSource(20261017))
	iters := 2000
	if testing.Short() {
		iters = 300
	}
	checked := 0
	for i := 0; i < iters; i++ {
		g := randomGrammar(r)
		if g == nil {
			continue
		}
		tbl := lr.BuildTable(lr.Build(g))
		if err := core.CheckSharedPaths(tbl); err != nil {
			t.Fatalf("iter %d on\n%s: %v", i, g, err)
		}
		checked += len(tbl.Conflicts)
	}
	if checked == 0 {
		t.Fatal("no random grammar had a conflict")
	}
	t.Logf("checked %d random conflicts", checked)
}

// oracleConfirms re-parses a unifying counterexample with the independent
// GLR oracle: the sentential form is concretized to pure terminals and must
// have at least two distinct parse trees under the ambiguous nonterminal.
// applicable is false when the oracle cannot rule — either the sentential
// form contains an unproductive nonterminal (random grammars are not
// reduced; the paper assumes reduced grammars, as yacc/CUP warn about
// unproductive symbols separately) or the GLR fork limit was hit.
func oracleConfirms(t *testing.T, g *grammar.Grammar, ex *core.Example) (ambiguous, applicable bool) {
	t.Helper()
	sub, err := g.WithStart(ex.Nonterminal)
	if err != nil {
		t.Fatalf("WithStart(%s): %v", g.Name(ex.Nonterminal), err)
	}
	syms := remapSyms(t, g, sub, ex.Syms)
	concrete, ok := engine.Concretize(sub, syms)
	if !ok {
		return false, false
	}
	glr := engine.NewGLR(lr.BuildTable(lr.Build(sub)))
	n, err := glr.CountParses(concrete)
	if err != nil {
		return false, false // fork limit: oracle inconclusive
	}
	return n >= 2, true
}

func remapSyms(t *testing.T, from, to *grammar.Grammar, syms []grammar.Sym) []grammar.Sym {
	t.Helper()
	out := make([]grammar.Sym, len(syms))
	for i, s := range syms {
		m, ok := to.Lookup(from.Name(s))
		if !ok {
			t.Fatalf("symbol %s lost in remap", from.Name(s))
		}
		out[i] = m
	}
	return out
}
