// Package lrcex is an LALR(1) parser generator with the counterexample
// finder of Isradisaikul & Myers, "Finding Counterexamples from Parsing
// Conflicts" (PLDI 2015): for every shift/reduce or reduce/reduce conflict it
// constructs a compact counterexample — a unifying one (a single string with
// two distinct derivations, proving ambiguity) when possible, and a
// nonunifying one (two derivable strings sharing the prefix up to the
// conflict point) otherwise.
//
// The typical pipeline:
//
//	g, err := lrcex.ParseGrammar("expr", src)   // yacc/CUP-like text
//	res := lrcex.Analyze(g)                     // LALR automaton + conflicts
//	for _, c := range res.Conflicts() {
//	    ex, err := res.Find(c)                  // counterexample for c
//	    fmt.Println(ex.Report(res.Automaton))
//	}
//
// The subpackages under internal implement the substrates: grammar analysis,
// the grammar definition language, the LALR construction, an LR parse engine,
// the counterexample search itself, and the baselines used by the evaluation.
package lrcex

import (
	"context"

	"lrcex/internal/core"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// Re-exported types: the public API surfaces the grammar, automaton, and
// counterexample vocabulary under one roof.
type (
	// Grammar is an immutable context-free grammar (see ParseGrammar and
	// GrammarBuilder).
	Grammar = grammar.Grammar
	// GrammarBuilder assembles a Grammar programmatically.
	GrammarBuilder = grammar.Builder
	// Sym identifies a grammar symbol.
	Sym = grammar.Sym
	// Automaton is the LALR(1) parser state machine.
	Automaton = lr.Automaton
	// Table is the LALR(1) parse table with its conflicts.
	Table = lr.Table
	// Conflict is one shift/reduce or reduce/reduce conflict.
	Conflict = lr.Conflict
	// Example is the counterexample found for a conflict.
	Example = core.Example
	// ExampleKind distinguishes unifying from nonunifying outcomes.
	ExampleKind = core.ExampleKind
	// Deriv is a partial derivation tree within an Example.
	Deriv = core.Deriv
	// Options tunes the counterexample finder: time limits (see NoTimeout),
	// Parallelism across conflicts, ExtendedSearch, the deterministic
	// MaxConfigs and MaxArenaBytes budgets, and the cost model. cmd/cexgen
	// and cmd/cexeval expose every field but the cost model through the
	// shared flag surface in internal/cliflags; the analysis service exposes
	// the same knobs as AnalyzeOptions JSON.
	Options = core.Options
	// CostModel weighs the product-parser search actions.
	CostModel = core.CostModel
	// SearchStats aggregates the measurable work of the counterexample
	// searches (frontier traffic, dedup hits, allocation footprint). Each
	// Example carries its conflict's stats; Result.SearchStats returns the
	// running totals.
	SearchStats = core.SearchStats
)

// Counterexample outcome kinds (see core.ExampleKind).
const (
	Unifying             = core.Unifying
	NonunifyingExhausted = core.NonunifyingExhausted
	NonunifyingTimeout   = core.NonunifyingTimeout
	NonunifyingSkipped   = core.NonunifyingSkipped
)

// NoTimeout disables a time limit when assigned to Options.PerConflictTimeout
// or Options.CumulativeTimeout (the zero value still selects the paper's
// defaults).
const NoTimeout = core.NoTimeout

// ParseGrammar parses a grammar written in the yacc/CUP-like grammar
// definition language (see internal/gdl for the format). The name appears in
// error messages.
func ParseGrammar(name, src string) (*Grammar, error) { return gdl.Parse(name, src) }

// NewGrammarBuilder returns a builder for assembling a grammar in code.
func NewGrammarBuilder() *GrammarBuilder { return grammar.NewBuilder() }

// Result bundles the LALR analysis of one grammar.
type Result struct {
	// Automaton is the LALR(1) state machine.
	Automaton *Automaton
	// Table is the parse table; Table.Conflicts lists unresolved conflicts
	// and Table.Resolved those settled by precedence declarations.
	Table *Table

	finder *core.Finder
}

// Analyze builds the LALR(1) automaton and parse table for g with default
// finder options.
func Analyze(g *Grammar) *Result { return AnalyzeWithOptions(g, Options{}) }

// AnalyzeWithOptions is Analyze with explicit finder options.
func AnalyzeWithOptions(g *Grammar, opts Options) *Result {
	a := lr.Build(g)
	t := lr.BuildTable(a)
	return &Result{Automaton: a, Table: t, finder: core.NewFinder(t, opts)}
}

// Conflicts returns the unresolved conflicts of the grammar.
func (r *Result) Conflicts() []Conflict { return r.Table.Conflicts }

// Find constructs a counterexample for one conflict.
func (r *Result) Find(c Conflict) (*Example, error) { return r.finder.Find(c) }

// FindContext is Find with cooperative cancellation.
func (r *Result) FindContext(ctx context.Context, c Conflict) (*Example, error) {
	return r.finder.FindContext(ctx, c)
}

// FindAll constructs one counterexample per conflict, in conflict order,
// sharing the cumulative time budget across conflicts as the paper's
// implementation does. Conflicts are searched on Options.Parallelism
// workers (default GOMAXPROCS); results are returned in conflict order
// regardless of completion order.
func (r *Result) FindAll() ([]*Example, error) { return r.finder.FindAll() }

// FindAllContext is FindAll with cooperative cancellation: in-flight
// searches observe ctx at their next poll point and stop.
func (r *Result) FindAllContext(ctx context.Context) ([]*Example, error) {
	return r.finder.FindAllContext(ctx)
}

// SearchStats returns the running totals of search work across every conflict
// this Result has processed (sums, except PeakFrontier which is the max over
// conflicts). Safe for concurrent use.
func (r *Result) SearchStats() SearchStats { return r.finder.Stats() }
