package engine_test

import (
	"fmt"
	"testing"

	"lrcex/internal/engine"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

func words(t *testing.T, g *grammar.Grammar, input string) []grammar.Sym {
	t.Helper()
	toks, err := engine.LexWords(g, input)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]grammar.Sym, len(toks))
	for i, tok := range toks {
		out[i] = tok.Sym
	}
	return out
}

func TestGLRUnambiguousSingleParse(t *testing.T) {
	// A layered (grammar-level unambiguous) expression grammar: exactly one
	// parse. Note that the precedence-resolved calculator grammar would give
	// two — GLR works on the CFG, where %left is invisible.
	g, tbl := compile(t, `
e : e '+' f | f ;
f : f '*' x | x ;
x : 'n' | '(' e ')' ;
`)
	glr := engine.NewGLR(tbl)
	n, err := glr.CountParses(words(t, g, "n + n * n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("parses = %d, want 1 (layered grammar)", n)
	}
}

func TestGLRSeesThroughPrecedence(t *testing.T) {
	// The calculator grammar is CFG-ambiguous even though %left resolves its
	// table conflicts: the GLR oracle must report both parses.
	g, tbl := compile(t, calcSrc)
	glr := engine.NewGLR(tbl)
	n, err := glr.CountParses(words(t, g, "n + n * n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("parses = %d, want 2 (CFG-level ambiguity)", n)
	}
}

func TestGLRAmbiguousTwoParses(t *testing.T) {
	g, tbl := compile(t, `e : e '+' e | 'n' ;`)
	glr := engine.NewGLR(tbl)
	n, err := glr.CountParses(words(t, g, "n + n + n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("parses = %d, want 2 ((n+n)+n and n+(n+n))", n)
	}
}

func TestGLRDanglingElseTwoParses(t *testing.T) {
	g, tbl := compile(t, `
stmt : 'if' 'e' 'then' stmt 'else' stmt
     | 'if' 'e' 'then' stmt
     | 'other'
     ;
`)
	glr := engine.NewGLR(tbl)
	n, err := glr.CountParses(words(t, g, "if e then if e then other else other"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("parses = %d, want 2", n)
	}
}

func TestGLRSyntaxError(t *testing.T) {
	g, tbl := compile(t, `e : e '+' e | 'n' ;`)
	glr := engine.NewGLR(tbl)
	n, err := glr.CountParses(words(t, g, "n + +"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("parses = %d, want 0 (syntax error)", n)
	}
}

func TestGLRCatalanGrowth(t *testing.T) {
	// n + n + n + n has Catalan(3) = 5 parses.
	g, tbl := compile(t, `e : e '+' e | 'n' ;`)
	glr := engine.NewGLR(tbl)
	n, err := glr.CountParses(words(t, g, "n + n + n + n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("parses = %d, want 5 (Catalan number)", n)
	}
}

func TestGLRMaxTreesCap(t *testing.T) {
	// Seven operands have Catalan(6) = 132 parses; the driver returns its
	// cap of 16.
	g, tbl := compile(t, `e : e '+' e | 'n' ;`)
	glr := engine.NewGLR(tbl)
	n, err := glr.CountParses(words(t, g, "n + n + n + n + n + n + n"))
	if err != nil {
		t.Fatal(err)
	}
	if n != 16 {
		t.Errorf("parses = %d, want the cap 16", n)
	}
}

// TestGLRTreeIDsAreExact parses "x" two ways, as s → x m and as s → n x, on
// a grammar padded so that the two trees agree on every production and
// symbol id modulo 256: productions 1 and 257, 255 and 511; symbols x, n and
// m are 3, 259 and 515. A tree key that keeps one byte per id counts one
// parse.
func TestGLRTreeIDsAreExact(t *testing.T) {
	b := grammar.NewBuilder()
	s := b.Nonterminal("s")
	x := b.Terminal("x")
	f := b.Nonterminal("f")
	next := f + 1 // the next symbol id
	pad := func(sym grammar.Sym) {
		for ; next < sym; next++ {
			b.Terminal(fmt.Sprintf("t%d", next))
		}
		next++ // sym itself
	}
	pad(259)
	n := b.Nonterminal("n")
	pad(515)
	m := b.Nonterminal("m")
	if x != 3 || n != 259 || m != 515 {
		t.Fatalf("symbol ids x=%d n=%d m=%d, want 3, 259, 515", x, n, m)
	}
	prods := 0
	add := func(lhs grammar.Sym, rhs ...grammar.Sym) {
		b.Add(lhs, rhs, grammar.NoSym)
		prods++
	}
	fill := func(pid int) { // production ids start at 1, after START'
		for prods+1 < pid {
			add(f, x, x)
		}
	}
	add(s, x, m)
	fill(255)
	add(n)
	fill(257)
	add(s, n, x)
	fill(511)
	add(m)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for pid, lhs := range map[int]grammar.Sym{1: s, 255: n, 257: s, 511: m} {
		if g.Production(pid).LHS != lhs {
			t.Fatalf("production %d is %s, want an %s production", pid, g.ProdString(pid), g.Name(lhs))
		}
	}
	got, err := engine.NewGLR(lr.BuildTable(lr.Build(g))).CountParses([]grammar.Sym{x})
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Errorf("parses of \"x\" = %d, want 2 (s → x m and s → n x)", got)
	}
}

func TestReplayHonorsNonassoc(t *testing.T) {
	// %nonassoc turns "n < n < n" into a syntax error for the generated
	// parser; the grammar's language, which the tree-building driver
	// measures, still has it twice.
	g, tbl := compile(t, "%nonassoc '<'\ne : e '<' e | 'n' ;")
	in := words(t, g, "n < n < n")
	if ok, err := engine.NewReplay(tbl).Accepts(in); err != nil || ok {
		t.Errorf("replay accepts %q = %v, %v; want false", "n < n < n", ok, err)
	}
	if ok, err := engine.NewReplay(tbl).Accepts(words(t, g, "n < n")); err != nil || !ok {
		t.Errorf("replay accepts %q = %v, %v; want true", "n < n", ok, err)
	}
	if n, err := engine.NewGLR(tbl).CountParses(in); err != nil || n != 2 {
		t.Errorf("full parses of %q = %d, %v; want 2", "n < n < n", n, err)
	}
}

func TestReplayForksAtUnresolvedConflict(t *testing.T) {
	// State 0 has an unresolved shift/reduce conflict on 'y': shift for
	// s → y w, reduce a → ε for s → a y z. The table's default (shift) rejects
	// "y z"; the replay forks and accepts it.
	g, tbl := compile(t, "s : a 'y' 'z' | 'y' 'w' ;\na : ;")
	if len(tbl.Conflicts) != 1 {
		t.Fatalf("conflicts = %d, want 1", len(tbl.Conflicts))
	}
	for _, input := range []string{"y z", "y w"} {
		if ok, err := engine.NewReplay(tbl).Accepts(words(t, g, input)); err != nil || !ok {
			t.Errorf("replay accepts %q = %v, %v; want true", input, ok, err)
		}
	}
	if _, err := parseWords(t, g, tbl, "y z"); err == nil {
		t.Error("the deterministic parser accepts \"y z\"; want the shift default to reject it")
	}
}

func TestGLRNonLALRGrammarParses(t *testing.T) {
	// Figure 3's LR(2) grammar: GLR handles it; every input has one parse.
	g, tbl := compile(t, `
S : T | S T ;
T : X | Y ;
X : 'a' ;
Y : 'a' 'a' 'b' ;
`)
	glr := engine.NewGLR(tbl)
	for input, want := range map[string]int{
		"a":       1, // X
		"a a":     1, // X X
		"a a b":   1, // Y — needs the 2-token lookahead LALR lacks
		"a a b a": 1, // Y X
		"a a a b": 1, // X Y
	} {
		n, err := glr.CountParses(words(t, g, input))
		if err != nil {
			t.Fatal(err)
		}
		if n != want {
			t.Errorf("%q: parses = %d, want %d", input, n, want)
		}
	}
}

func TestConcretize(t *testing.T) {
	g, _ := compile(t, `
stmt : 'if' expr 'then' stmt | 'other' ;
expr : num ;
num : 'digit' | num 'digit' ;
`)
	stmt, _ := g.Lookup("stmt")
	expr, _ := g.Lookup("expr")
	ifT, _ := g.Lookup("if")
	out, ok := engine.Concretize(g, []grammar.Sym{ifT, expr, stmt})
	if !ok {
		t.Fatal("concretize failed")
	}
	if g.SymString(out) != "if digit other" {
		t.Errorf("concretized = %q, want %q", g.SymString(out), "if digit other")
	}
	for _, s := range out {
		if !g.IsTerminal(s) {
			t.Errorf("non-terminal %s survived concretization", g.Name(s))
		}
	}
}

func TestConcretizeUnitCycle(t *testing.T) {
	// s -> s | 'a': naive min-length tie-breaking can loop; min-height must
	// terminate and pick 'a'.
	g, _ := compile(t, `s : s | 'a' ;`)
	s, _ := g.Lookup("s")
	out, ok := engine.Concretize(g, []grammar.Sym{s, s})
	if !ok {
		t.Fatal("concretize failed")
	}
	if g.SymString(out) != "a a" {
		t.Errorf("concretized = %q, want %q", g.SymString(out), "a a")
	}
}
