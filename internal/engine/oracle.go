package engine

import (
	"errors"
	"fmt"
	"sync"

	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// ErrForkLimit is the typed cause of a GLR parse abandoned at the fork
// limit. Oracle callers treat it as "unable to judge" — a property of the
// oracle's budget, not of the input — and distinguish it from a genuine
// verdict with errors.Is.
var ErrForkLimit = errors.New("engine: GLR fork limit exceeded")

// ErrNotConcrete is the typed cause of a sentential form the oracle cannot
// expand to terminals: some nonterminal in it derives no terminal string (the
// grammar is not reduced). Like ErrForkLimit it means "no verdict".
var ErrNotConcrete = errors.New("engine: sentential form derives no terminal string")

// Oracle is the independent ambiguity oracle and the repair replay for one
// grammar. A sentence derived from an inner nonterminal is parsed with that
// nonterminal as the start symbol; the oracle builds each such restart's
// LALR table once, however many sentences are checked against it. A restart
// keeps the grammar's symbol ids (grammar.WithStart), so sentences pass
// between them unchanged. It is safe for concurrent use.
type Oracle struct {
	g        *grammar.Grammar
	mu       sync.Mutex
	restarts map[grammar.Sym]*restart
}

type restart struct {
	once        sync.Once
	glr, replay *GLR
	err         error
}

// NewOracle returns the oracle for g. A non-nil tbl is g's own table, which
// then serves the restart at g's start symbol.
func NewOracle(g *grammar.Grammar, tbl *lr.Table) *Oracle {
	o := &Oracle{g: g, restarts: map[grammar.Sym]*restart{}}
	if tbl != nil {
		r := &restart{glr: NewGLR(tbl), replay: NewReplay(tbl)}
		r.once.Do(func() {})
		o.restarts[g.StartSym()] = r
	}
	return o
}

func (o *Oracle) restart(start grammar.Sym) (*restart, error) {
	o.mu.Lock()
	r := o.restarts[start]
	if r == nil {
		r = &restart{}
		o.restarts[start] = r
	}
	o.mu.Unlock()
	r.once.Do(func() {
		var sub *grammar.Grammar
		if sub, r.err = o.g.WithStart(start); r.err == nil {
			tbl := lr.BuildTable(lr.Build(sub))
			r.glr, r.replay = NewGLR(tbl), NewReplay(tbl)
		}
	})
	return r, r.err
}

// CountParses re-validates a unifying counterexample end-to-end against the
// GLR driver, with no code shared with the conflict-time search. The
// sentential form syms is a claimed ambiguous derivation of nonterminal
// start; the oracle concretizes it to pure terminals and counts distinct
// parse trees from start. A return of n >= 2 confirms the ambiguity. Errors
// wrapping ErrForkLimit or ErrNotConcrete mean the oracle has no verdict.
func (o *Oracle) CountParses(start grammar.Sym, syms []grammar.Sym) (int, error) {
	words, ok := Concretize(o.g, syms)
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotConcrete, o.g.SymString(syms))
	}
	r, err := o.restart(start)
	if err != nil {
		return 0, err
	}
	return r.glr.CountParses(words)
}

// Accepts reports whether the generated parser, started at nonterminal
// start, accepts the terminal string (see NewReplay).
func (o *Oracle) Accepts(start grammar.Sym, words []grammar.Sym) (bool, error) {
	r, err := o.restart(start)
	if err != nil {
		return false, err
	}
	return r.replay.Accepts(words)
}

// ValidateAmbiguous is Oracle.CountParses for a one-off check.
func ValidateAmbiguous(g *grammar.Grammar, start grammar.Sym, syms []grammar.Sym) (int, error) {
	return NewOracle(g, nil).CountParses(start, syms)
}
