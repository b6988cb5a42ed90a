package engine_test

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"lrcex/internal/engine"
	"lrcex/internal/grammar"
)

const stmtSrc = `
stmt : 'if' expr 'then' stmt 'else' stmt
     | 'if' expr 'then' stmt
     | 'other'
     ;
expr : expr '+' expr | 'n' ;
`

// form looks up a sentential form's symbols by name.
func form(t *testing.T, g *grammar.Grammar, names string) []grammar.Sym {
	t.Helper()
	var out []grammar.Sym
	for _, name := range strings.Fields(names) {
		s, ok := g.Lookup(name)
		if !ok {
			t.Fatalf("no symbol %q", name)
		}
		out = append(out, s)
	}
	return out
}

func TestOracleCountsAtEachStart(t *testing.T) {
	g, tbl := compile(t, stmtSrc)
	oracle := engine.NewOracle(g, tbl)
	stmt, _ := g.Lookup("stmt")
	expr, _ := g.Lookup("expr")
	for _, c := range []struct {
		start grammar.Sym
		form  string
		want  int
	}{
		{stmt, "if expr then if expr then stmt else stmt", 2},
		{expr, "expr + expr + expr", 2},
		{expr, "expr + expr", 1},
	} {
		n, err := oracle.CountParses(c.start, form(t, g, c.form))
		if err != nil || n != c.want {
			t.Errorf("%s ⇒ %q: parses = %d, %v; want %d", g.Name(c.start), c.form, n, err, c.want)
		}
		if v, err := engine.ValidateAmbiguous(g, c.start, form(t, g, c.form)); v != n || err != nil {
			t.Errorf("ValidateAmbiguous on %q = %d, %v; want the oracle's %d", c.form, v, err, n)
		}
	}
	if ok, err := oracle.Accepts(expr, words(t, g, "n + n")); err != nil || !ok {
		t.Errorf("replay from expr accepts %q = %v, %v; want true", "n + n", ok, err)
	}
	ifT, _ := g.Lookup("if")
	if _, err := oracle.Accepts(ifT, nil); err == nil {
		t.Error("a restart at a terminal succeeded")
	}
}

func TestOracleNotConcrete(t *testing.T) {
	// u derives no terminal string, so a form containing it has no verdict.
	g, tbl := compile(t, "s : 'a' | u ;\nu : u 'b' ;")
	u, _ := g.Lookup("u")
	s, _ := g.Lookup("s")
	_, err := engine.NewOracle(g, tbl).CountParses(s, []grammar.Sym{u})
	if !errors.Is(err, engine.ErrNotConcrete) {
		t.Errorf("err = %v, want ErrNotConcrete", err)
	}
}

// TestOracleConcurrent races goroutines over one oracle's restarts (run it
// under -race); every count must match.
func TestOracleConcurrent(t *testing.T) {
	g, _ := compile(t, stmtSrc)
	oracle := engine.NewOracle(g, nil)
	stmt, _ := g.Lookup("stmt")
	expr, _ := g.Lookup("expr")
	forms := map[grammar.Sym][]grammar.Sym{
		stmt: form(t, g, "if expr then if expr then stmt else stmt"),
		expr: form(t, g, "expr + expr + expr"),
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := stmt
			if i%2 == 1 {
				start = expr
			}
			if n, err := oracle.CountParses(start, forms[start]); err != nil || n != 2 {
				t.Errorf("goroutine %d: parses = %d, %v; want 2", i, n, err)
			}
		}()
	}
	wg.Wait()
}
