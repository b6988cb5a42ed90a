package core_test

import (
	"math/rand"
	"testing"

	"lrcex/internal/core"
	"lrcex/internal/engine"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// FuzzFindAll fuzzes the whole counterexample pipeline over random small
// grammars derived from the fuzzed seed. Three properties are enforced:
//
//  1. panic-freedom: constructing the automaton and searching every conflict
//     never crashes, whatever the grammar shape;
//  2. oracle validity: every unifying counterexample re-parses ambiguously
//     under the independent GLR oracle (when the oracle is applicable);
//  3. schedule independence: sequential and parallel FindAll produce
//     byte-identical canonical reports, because the budgets used here
//     (NoTimeout + MaxConfigs) are deterministic.
//
// Run a longer campaign with:
//
//	go test -run='^$' -fuzz=FuzzFindAll -fuzztime=10s ./internal/core/
func FuzzFindAll(f *testing.F) {
	for seed := int64(0); seed < 20; seed++ {
		f.Add(seed)
	}
	f.Add(int64(20260705)) // TestRandomGrammarInvariants' seed

	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		g := randomGrammar(r)
		if g == nil {
			t.Skip("random grammar failed validation")
		}
		tbl := lr.BuildTable(lr.Build(g))

		// Deterministic budgets: no wall clock, a fixed configuration cap.
		// Per-conflict outcomes are then a pure function of the grammar, so
		// the sequential and parallel runs must agree exactly.
		opts := core.Options{
			PerConflictTimeout: core.NoTimeout,
			CumulativeTimeout:  core.NoTimeout,
			MaxConfigs:         20000,
			Parallelism:        1,
		}
		seq, err := core.NewFinder(tbl, opts).FindAll()
		if err != nil {
			t.Fatalf("sequential FindAll on\n%s: %v", g, err)
		}
		if len(seq) != len(tbl.Conflicts) {
			t.Fatalf("%d examples for %d conflicts on\n%s", len(seq), len(tbl.Conflicts), g)
		}

		opts.Parallelism = 4
		par, err := core.NewFinder(tbl, opts).FindAll()
		if err != nil {
			t.Fatalf("parallel FindAll on\n%s: %v", g, err)
		}
		if len(par) != len(seq) {
			t.Fatalf("parallel returned %d examples, sequential %d, on\n%s", len(par), len(seq), g)
		}
		if ra, rb := core.CanonicalReport(tbl.A, seq), core.CanonicalReport(tbl.A, par); ra != rb {
			t.Errorf("sequential and parallel reports diverged on\n%s\n--- sequential ---\n%s\n--- parallel ---\n%s",
				g, ra, rb)
		}

		oracle := engine.NewOracle(g, tbl)
		for _, ex := range seq {
			if ex.Kind != core.Unifying {
				if len(ex.Prefix)+len(ex.After1) == 0 && ex.Conflict.Sym != grammar.EOF {
					t.Errorf("empty nonunifying counterexample on\n%s", g)
				}
				continue
			}
			checkUnifying(t, g, ex)
			ambiguous, applicable := oracleConfirms(t, oracle, ex)
			if applicable && !ambiguous {
				t.Errorf("oracle refuted unifying example %q on\n%s", g.SymString(ex.Syms), g)
			}
		}
	})
}
