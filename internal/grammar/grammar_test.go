package grammar

import (
	"strings"
	"testing"
)

// buildFigure1 assembles the paper's Figure 1 grammar programmatically.
func buildFigure1(t *testing.T) *Grammar {
	t.Helper()
	b := NewBuilder()
	stmt := b.Nonterminal("stmt")
	expr := b.Nonterminal("expr")
	num := b.Nonterminal("num")
	ifT, thenT, elseT := b.Terminal("if"), b.Terminal("then"), b.Terminal("else")
	q, arr, lb, rb, asg, plus, digit := b.Terminal("?"), b.Terminal("arr"),
		b.Terminal("["), b.Terminal("]"), b.Terminal(":="), b.Terminal("+"), b.Terminal("digit")
	b.Add(stmt, []Sym{ifT, expr, thenT, stmt, elseT, stmt}, NoSym)
	b.Add(stmt, []Sym{ifT, expr, thenT, stmt}, NoSym)
	b.Add(stmt, []Sym{expr, q, stmt, stmt}, NoSym)
	b.Add(stmt, []Sym{arr, lb, expr, rb, asg, expr}, NoSym)
	b.Add(expr, []Sym{num}, NoSym)
	b.Add(expr, []Sym{expr, plus, expr}, NoSym)
	b.Add(num, []Sym{digit}, NoSym)
	b.Add(num, []Sym{num, digit}, NoSym)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sym(t *testing.T, g *Grammar, name string) Sym {
	t.Helper()
	s, ok := g.Lookup(name)
	if !ok {
		t.Fatalf("symbol %q not found", name)
	}
	return s
}

func TestBuilderCounts(t *testing.T) {
	g := buildFigure1(t)
	if got := g.NumProductions(); got != 9 { // 8 + augmented
		t.Errorf("productions = %d, want 9", got)
	}
	if got := len(g.Nonterminals()); got != 3 {
		t.Errorf("nonterminals = %d, want 3", got)
	}
	if got := g.NumTerminals(); got != 11 { // 10 + EOF
		t.Errorf("terminals = %d, want 11", got)
	}
	if g.StartSym() != sym(t, g, "stmt") {
		t.Errorf("start symbol = %s, want stmt", g.Name(g.StartSym()))
	}
}

func TestAugmentedProduction(t *testing.T) {
	g := buildFigure1(t)
	p := g.Production(0)
	if p.LHS != Start {
		t.Errorf("production 0 LHS = %v, want START'", p.LHS)
	}
	if len(p.RHS) != 2 || p.RHS[0] != g.StartSym() || p.RHS[1] != EOF {
		t.Errorf("production 0 RHS = %v, want [start $]", p.RHS)
	}
}

func TestNullable(t *testing.T) {
	b := NewBuilder()
	s := b.Nonterminal("s")
	aOpt := b.Nonterminal("aopt")
	a := b.Terminal("a")
	x := b.Terminal("x")
	b.Add(s, []Sym{aOpt, x}, NoSym)
	b.Add(aOpt, nil, NoSym)
	b.Add(aOpt, []Sym{aOpt, a}, NoSym)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Nullable(aOpt) {
		t.Error("aopt should be nullable")
	}
	if g.Nullable(s) {
		t.Error("s should not be nullable")
	}
	if g.Nullable(a) {
		t.Error("terminals are never nullable")
	}
}

func TestFirstSets(t *testing.T) {
	g := buildFigure1(t)
	expr := sym(t, g, "expr")
	first := g.First(expr)
	if !first.Has(g.TermIndex(sym(t, g, "digit"))) {
		t.Errorf("FIRST(expr) = %s should contain digit", first.Format(g))
	}
	if first.Has(g.TermIndex(sym(t, g, "+"))) {
		t.Errorf("FIRST(expr) = %s should not contain +", first.Format(g))
	}
	stmt := sym(t, g, "stmt")
	fs := g.First(stmt)
	for _, want := range []string{"if", "digit", "arr"} {
		if !fs.Has(g.TermIndex(sym(t, g, want))) {
			t.Errorf("FIRST(stmt) = %s should contain %s", fs.Format(g), want)
		}
	}
}

func TestFirstOfSeqNullable(t *testing.T) {
	b := NewBuilder()
	s := b.Nonterminal("s")
	e := b.Nonterminal("e")
	a, x := b.Terminal("a"), b.Terminal("x")
	b.Add(s, []Sym{e, x}, NoSym)
	b.Add(e, nil, NoSym)
	b.Add(e, []Sym{a}, NoSym)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fs, nullable := g.FirstOfSeq([]Sym{e, e})
	if !nullable {
		t.Error("e e should be nullable")
	}
	if !fs.Has(g.TermIndex(a)) {
		t.Error("FIRST(e e) should contain a")
	}
	fs2, nullable2 := g.FirstOfSeq([]Sym{e, x})
	if nullable2 {
		t.Error("e x should not be nullable")
	}
	if !fs2.Has(g.TermIndex(x)) || !fs2.Has(g.TermIndex(a)) {
		t.Error("FIRST(e x) should contain a and x")
	}
}

func TestFollowL(t *testing.T) {
	g := buildFigure1(t)
	// Production stmt -> if expr then stmt else stmt; dot before "stmt" at
	// position 3: followL must be {else} regardless of L.
	l := NewTermSet(g.NumTerminals())
	l.Add(g.TermIndex(EOF))
	var pid int
	for i := 1; i < g.NumProductions(); i++ {
		p := g.Production(i)
		if len(p.RHS) == 6 && p.RHS[0] == sym(t, g, "if") {
			pid = i
		}
	}
	follow := g.FollowL(pid, 3, l)
	if !follow.Has(g.TermIndex(sym(t, g, "else"))) || follow.Len() != 1 {
		t.Errorf("followL = %s, want {else}", follow.Format(g))
	}
	// Dot before the final stmt: followL = L.
	follow2 := g.FollowL(pid, 5, l)
	if !follow2.Equal(l) {
		t.Errorf("followL at end = %s, want %s", follow2.Format(g), l.Format(g))
	}
}

func TestMinTerminalExpansion(t *testing.T) {
	g := buildFigure1(t)
	min := g.MinTerminalExpansion()
	if got := min[sym(t, g, "num")]; got != 1 {
		t.Errorf("min(num) = %d, want 1 (digit)", got)
	}
	if got := min[sym(t, g, "expr")]; got != 1 {
		t.Errorf("min(expr) = %d, want 1", got)
	}
	// Shortest stmt: arr [ expr ] := expr with both exprs one digit = 6.
	if got := min[sym(t, g, "stmt")]; got != 6 {
		t.Errorf("min(stmt) = %d, want 6", got)
	}
}

func TestMinTerminalExpansionUnproductive(t *testing.T) {
	b := NewBuilder()
	s := b.Nonterminal("s")
	u := b.Nonterminal("u")
	a := b.Terminal("a")
	b.Add(s, []Sym{a}, NoSym)
	b.Add(s, []Sym{u}, NoSym)
	b.Add(u, []Sym{u, a}, NoSym) // u derives no terminal string
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.MinTerminalExpansion()[u]; got != -1 {
		t.Errorf("min(u) = %d, want -1 (unproductive)", got)
	}
}

func TestReachable(t *testing.T) {
	b := NewBuilder()
	s := b.Nonterminal("s")
	dead := b.Nonterminal("dead")
	a := b.Terminal("a")
	d := b.Terminal("d")
	b.Add(s, []Sym{a}, NoSym)
	b.Add(dead, []Sym{d}, NoSym)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	r := g.Reachable()
	if !r[s] || !r[a] {
		t.Error("start and its terminal must be reachable")
	}
	if r[dead] || r[d] {
		t.Error("dead nonterminal should be unreachable")
	}
}

func TestBuildErrors(t *testing.T) {
	t.Run("undefined nonterminal", func(t *testing.T) {
		b := NewBuilder()
		s := b.Nonterminal("s")
		ghost := b.Nonterminal("ghost")
		b.Add(s, []Sym{ghost}, NoSym)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "no productions") {
			t.Errorf("want 'no productions' error, got %v", err)
		}
	})
	t.Run("empty builder", func(t *testing.T) {
		if _, err := NewBuilder().Build(); err == nil {
			t.Error("want error for empty grammar")
		}
	})
	t.Run("EOF in RHS", func(t *testing.T) {
		b := NewBuilder()
		s := b.Nonterminal("s")
		b.Add(s, []Sym{EOF}, NoSym)
		if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "end-of-input") {
			t.Errorf("want end-of-input error, got %v", err)
		}
	})
	t.Run("double build", func(t *testing.T) {
		b := NewBuilder()
		s := b.Nonterminal("s")
		b.Add(s, []Sym{b.Terminal("a")}, NoSym)
		if _, err := b.Build(); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Build(); err == nil {
			t.Error("second Build should fail")
		}
	})
	t.Run("bad precedence", func(t *testing.T) {
		b := NewBuilder()
		s := b.Nonterminal("s")
		a := b.Terminal("a")
		b.SetPrec(a, -1, AssocLeft)
		b.Add(s, []Sym{a}, NoSym)
		if _, err := b.Build(); err == nil {
			t.Error("negative precedence should fail")
		}
	})
}

func TestProductionPrecedence(t *testing.T) {
	b := NewBuilder()
	e := b.Nonterminal("e")
	plus := b.Terminal("+")
	um := b.Terminal("UMINUS")
	n := b.Terminal("n")
	b.SetPrec(plus, 1, AssocLeft)
	b.SetPrec(um, 2, AssocRight)
	pAdd := b.Add(e, []Sym{e, plus, e}, NoSym) // inherits + precedence
	pNeg := b.Add(e, []Sym{plus, e}, um)       // %prec UMINUS override
	b.Add(e, []Sym{n}, NoSym)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Production(pAdd + 1).Prec; got != 1 { // +1 for augmented shift
		t.Errorf("add production precedence = %d, want 1", got)
	}
	if got := g.Production(pNeg + 1).Prec; got != 2 {
		t.Errorf("neg production precedence = %d, want 2 (UMINUS)", got)
	}
}

func TestStringRendering(t *testing.T) {
	g := buildFigure1(t)
	s := g.String()
	for _, want := range []string{
		"stmt -> if expr then stmt else stmt",
		"expr -> expr + expr",
		"num -> num digit",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("grammar rendering missing %q:\n%s", want, s)
		}
	}
	if got := g.ProdString(0); got != "START' -> stmt $" {
		t.Errorf("augmented production renders as %q", got)
	}
}

// TestWithStartKeepsSymbolIDs pins what the GLR oracle relies on to pass
// sentences between a grammar and its restarts unchanged.
func TestWithStartKeepsSymbolIDs(t *testing.T) {
	g := buildFigure1(t)
	sub, err := g.WithStart(sym(t, g, "expr"))
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumSymbols() != g.NumSymbols() || sub.StartSym() != sym(t, g, "expr") {
		t.Fatalf("restart has %d symbols and start %s; want %d and expr", sub.NumSymbols(), sub.Name(sub.StartSym()), g.NumSymbols())
	}
	for s := 0; s < g.NumSymbols(); s++ {
		if sub.Name(Sym(s)) != g.Name(Sym(s)) || sub.IsTerminal(Sym(s)) != g.IsTerminal(Sym(s)) {
			t.Errorf("symbol %d is %s in the restart, %s in the grammar", s, sub.Name(Sym(s)), g.Name(Sym(s)))
		}
	}
}
