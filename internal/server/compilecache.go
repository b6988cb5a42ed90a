package server

import (
	"lrcex/internal/core"
	"lrcex/internal/grammar"
)

// compiledGrammar is one compile-cache entry: the parsed grammar alongside
// the compiled search artifact (LALR automaton, parse table, state-item
// graph). Everything in it is immutable after construction, so entries are
// shared freely across concurrent analyses.
type compiledGrammar struct {
	g *grammar.Grammar
	c *core.Compiled
	// name and src are the grammar's label and the exact GDL source it was
	// compiled from — what the persistence layer journals so a restarted
	// daemon can rebuild the artifact and land on the identical automaton
	// (re-parsing the same bytes replays the same symbol interning).
	name string
	src  string
}
