package metamorph_test

import (
	"testing"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
	"lrcex/internal/metamorph"
)

// detOpts are fully deterministic finder budgets (no wall clock), so both
// sides of a differential pair are pure functions of grammar structure.
func detOpts() core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         20000,
		Parallelism:        1,
	}
}

func inputFor(t *testing.T, name string) metamorph.Input {
	t.Helper()
	e, ok := corpus.Get(name)
	if !ok {
		t.Fatalf("no corpus grammar %q", name)
	}
	return metamorph.Input{Name: name, Source: e.Source, Grammar: e.Grammar()}
}

// TestIRRoundTrip is the foundation of every Equivalent-class comparison: an
// unmutated IR rebuild must reproduce not just an equal grammar but the
// identical automaton — same state numbering, same conflict coordinates.
func TestIRRoundTrip(t *testing.T) {
	for _, e := range corpus.All() {
		g := e.Grammar()
		g2, err := grammar.FromGrammar(g).Build()
		if err != nil {
			t.Fatalf("%s: rebuild: %v", e.Name, err)
		}
		if !grammar.Equal(g, g2) {
			t.Errorf("%s: IR roundtrip grammar not equal", e.Name)
			continue
		}
		if g.NumSymbols() != g2.NumSymbols() || g.NumProductions() != g2.NumProductions() {
			t.Errorf("%s: IR roundtrip changed symbol/production counts", e.Name)
		}
		t1 := lr.BuildTable(lr.Build(g))
		t2 := lr.BuildTable(lr.Build(g2))
		if len(t1.A.States) != len(t2.A.States) {
			t.Errorf("%s: state count %d -> %d after roundtrip", e.Name, len(t1.A.States), len(t2.A.States))
		}
		if len(t1.Conflicts) != len(t2.Conflicts) {
			t.Errorf("%s: conflict count %d -> %d after roundtrip", e.Name, len(t1.Conflicts), len(t2.Conflicts))
			continue
		}
		for i := range t1.Conflicts {
			a, b := t1.Conflicts[i], t2.Conflicts[i]
			if a.State != b.State || a.Kind != b.Kind || a.Sym != b.Sym || a.Item1 != b.Item1 || a.Item2 != b.Item2 {
				t.Errorf("%s: conflict %d moved after roundtrip: %+v -> %+v", e.Name, i, a, b)
				break
			}
		}
	}
}

// TestMutatorsDeterministic locks the reproducibility contract: the same
// (mutator, seed) pair must produce the identical mutant on every run.
func TestMutatorsDeterministic(t *testing.T) {
	for _, name := range corpus.SmokeNames() {
		in := inputFor(t, name)
		for _, m := range metamorph.All() {
			a, err := m.Apply(in, 7)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.Name, err)
			}
			b, err := m.Apply(in, 7)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.Name, err)
			}
			if (a == nil) != (b == nil) {
				t.Fatalf("%s/%s: applicability depends on the run", name, m.Name)
			}
			if a == nil {
				continue
			}
			if a.Source != b.Source {
				t.Errorf("%s/%s: seed 7 produced two different sources", name, m.Name)
			}
			if !grammar.Equal(a.Grammar, b.Grammar) {
				t.Errorf("%s/%s: seed 7 produced two different grammars", name, m.Name)
			}
			if a.Mutator != m.Name || a.Class != m.Class || a.Seed != 7 {
				t.Errorf("%s/%s: mutant not tagged: %+v", name, m.Name, a)
			}
		}
	}
}

// TestFormattingInvariants runs the full formatting check (fingerprint +
// structural equality) over the whole corpus: whitespace and comment churn
// must be invisible to the lexer.
func TestFormattingInvariants(t *testing.T) {
	for _, e := range corpus.All() {
		in := metamorph.Input{Name: e.Name, Source: e.Source, Grammar: e.Grammar()}
		for _, m := range []metamorph.Mutator{metamorph.WSChurn, metamorph.CommentChurn} {
			for seed := uint64(1); seed <= 3; seed++ {
				mut, err := m.Apply(in, seed)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", e.Name, m.Name, seed, err)
				}
				ref := metamorph.Ref{Grammar: e.Name, Mutator: m.Name, Seed: seed}
				for _, v := range metamorph.CheckFormatting(ref, in, mut) {
					t.Errorf("%s/%s/%d: %s: %s", e.Name, m.Name, seed, v.Invariant, v.Detail)
				}
			}
		}
	}
}

// TestEquivalentInvariants verifies the strongest differential class on the
// smoke grammars: renames and precedence-level stretches must leave conflict
// coordinates, canonical reports, and search stats bit-identical.
func TestEquivalentInvariants(t *testing.T) {
	for _, name := range corpus.SmokeNames() {
		in := inputFor(t, name)
		orig, err := metamorph.Analyze(in.Grammar, detOpts())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, m := range []metamorph.Mutator{metamorph.RenameSymbols, metamorph.PrecGaps} {
			for seed := uint64(1); seed <= 3; seed++ {
				mut, err := m.Apply(in, seed)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, m.Name, seed, err)
				}
				if mut == nil {
					continue // e.g. prec-gaps on a precedence-free grammar
				}
				ma, err := metamorph.Analyze(mut.Grammar, detOpts())
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, m.Name, seed, err)
				}
				ref := metamorph.Ref{Grammar: name, Mutator: m.Name, Seed: seed}
				for _, v := range metamorph.CheckPair(ref, mut.Class, orig, ma, metamorph.CheckConfig{}) {
					t.Errorf("%s/%s/%d: %s: %s", name, m.Name, seed, v.Invariant, v.Detail)
				}
			}
		}
	}
}

// TestPreservedInvariants verifies the aggregate class: production
// reordering keeps the conflict structure even as state numbering shifts.
func TestPreservedInvariants(t *testing.T) {
	for _, name := range corpus.SmokeNames() {
		in := inputFor(t, name)
		orig, err := metamorph.Analyze(in.Grammar, detOpts())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for seed := uint64(1); seed <= 3; seed++ {
			mut, err := metamorph.ReorderProds.Apply(in, seed)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, seed, err)
			}
			ma, err := metamorph.Analyze(mut.Grammar, detOpts())
			if err != nil {
				t.Fatalf("%s/%d: %v", name, seed, err)
			}
			ref := metamorph.Ref{Grammar: name, Mutator: mut.Mutator, Seed: seed}
			for _, v := range metamorph.CheckPair(ref, mut.Class, orig, ma, metamorph.CheckConfig{}) {
				t.Errorf("%s/%d: %s: %s", name, seed, v.Invariant, v.Detail)
			}
		}
	}
}

// TestPerturbingOracles runs the universal oracles over perturbing mutants:
// whatever the mutation did to the language, every unifying example must
// still be genuinely ambiguous and every nonunifying prefix must still reach
// its conflict.
func TestPerturbingOracles(t *testing.T) {
	perturbers := []metamorph.Mutator{
		metamorph.DropPrec, metamorph.DupProd, metamorph.UnfoldNonterm, metamorph.SwapAssoc,
	}
	for _, name := range corpus.SmokeNames() {
		in := inputFor(t, name)
		for _, m := range perturbers {
			mut, err := m.Apply(in, 11)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.Name, err)
			}
			if mut == nil {
				continue
			}
			ma, err := metamorph.Analyze(mut.Grammar, detOpts())
			if err != nil {
				t.Fatalf("%s/%s: %v", name, m.Name, err)
			}
			ref := metamorph.Ref{Grammar: name, Mutator: m.Name, Seed: 11}
			vs, st := metamorph.CheckOracles(ref, ma, metamorph.CheckConfig{OracleSample: 10})
			for _, v := range vs {
				t.Errorf("%s/%s: %s: %s", name, m.Name, v.Invariant, v.Detail)
			}
			if st.UnifyChecked+st.UnifySkipped+st.NonunifyChecked+st.NonunifySkipped == 0 && len(ma.Examples) > 0 {
				t.Errorf("%s/%s: oracle checked nothing over %d examples", name, m.Name, len(ma.Examples))
			}
		}
	}
}

// TestMutatorSkipsInapplicable pins the nil-mutant contract for grammars the
// mutation cannot touch.
func TestMutatorSkipsInapplicable(t *testing.T) {
	in := inputFor(t, "figure1") // no precedence declarations
	for _, m := range []metamorph.Mutator{metamorph.PrecGaps, metamorph.DropPrec, metamorph.SwapAssoc} {
		mut, err := m.Apply(in, 1)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if mut != nil {
			t.Errorf("%s applied to a precedence-free grammar", m.Name)
		}
	}
}

// TestDupProdCreatesConflict sanity-checks that the perturbation is a real
// one: duplicating a production must manufacture a reduce/reduce conflict.
func TestDupProdCreatesConflict(t *testing.T) {
	in := inputFor(t, "figure3") // unambiguous, conflict from lookahead only
	mut, err := metamorph.DupProd.Apply(in, 5)
	if err != nil {
		t.Fatal(err)
	}
	tbl := lr.BuildTable(lr.Build(mut.Grammar))
	rr := 0
	for _, c := range tbl.Conflicts {
		if c.Kind == lr.ReduceReduce {
			rr++
		}
	}
	if rr == 0 {
		t.Errorf("dup-prod produced no reduce/reduce conflict (got %d conflicts)", len(tbl.Conflicts))
	}
}
