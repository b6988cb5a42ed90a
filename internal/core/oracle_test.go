package core_test

import (
	"errors"
	"testing"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/engine"
	"lrcex/internal/gdl"
	"lrcex/internal/lr"
)

// TestUnifyingExamplesAgainstGLROracle verifies unifying counterexamples
// end-to-end with an independent oracle: each example's sentential form is
// concretized to pure terminals and fed to the GLR driver, which must find
// at least two distinct parse trees. This closes the loop between the
// conflict-time search (which never parses anything) and an actual parser.
//
// A grammar whose injected defects made the language infinitely ambiguous
// could exceed the GLR fork limit; that would be reported but not failed,
// since the limit is a property of the oracle, not of the counterexample.
// No corpus grammar does today, Java.2's nullable-name injection included.
func TestUnifyingExamplesAgainstGLROracle(t *testing.T) {
	budget := 200 * time.Millisecond
	if testing.Short() {
		budget = 50 * time.Millisecond
	}
	checked := 0
	for _, e := range corpus.All() {
		g, err := gdl.Parse(e.Name, e.Source)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		tbl := lr.BuildTable(lr.Build(g))
		f := core.NewFinder(tbl, core.Options{
			PerConflictTimeout: budget,
			CumulativeTimeout:  10 * budget,
		})
		exs, err := f.FindAll()
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		oracle := engine.NewOracle(g, tbl)
		for _, ex := range exs {
			if ex.Kind != core.Unifying {
				continue
			}
			// A unifying counterexample is a derivation of the ambiguous
			// nonterminal, so the oracle parses with that nonterminal as the
			// start symbol (the oracle restarts the grammar there,
			// concretizes, and counts GLR parse trees).
			n, err := oracle.CountParses(ex.Nonterminal, ex.Syms)
			if err != nil {
				if errors.Is(err, engine.ErrForkLimit) {
					t.Logf("%s: oracle limit on %q: %v (skipped)", e.Name, g.SymString(ex.Syms), err)
					continue
				}
				t.Errorf("%s: oracle on %q: %v", e.Name, g.SymString(ex.Syms), err)
				continue
			}
			if n < 2 {
				t.Errorf("%s: unifying example %q has %d parse(s), want >= 2",
					e.Name, g.SymString(ex.Syms), n)
			}
			checked++
		}
	}
	if checked < 30 {
		t.Errorf("oracle checked only %d unifying examples; expected many more", checked)
	}
	t.Logf("oracle confirmed %d unifying counterexamples", checked)
}
