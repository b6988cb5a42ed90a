// Package corpus holds the grammar suite used by the evaluation (Table 1 of
// the paper) plus helpers to look grammars up by name. Grammar sources are
// GDL text (see internal/gdl); the registry carries the per-grammar metadata
// the paper reports so the harness can print paper-vs-measured tables.
package corpus

import (
	"fmt"
	"sort"

	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
)

// Category groups grammars the way Table 1 does.
type Category int

// Categories in Table 1 order.
const (
	// Ours are the grammars shown in the paper plus grammars that motivated
	// the tool.
	Ours Category = iota
	// StackOverflow grammars reconstruct conflicts developers asked about on
	// StackOverflow / StackExchange.
	StackOverflow
	// BV10 grammars are mainstream-language grammars with injected conflicts,
	// in the style of Basten & Vinju's evaluation suite.
	BV10
)

func (c Category) String() string {
	switch c {
	case Ours:
		return "ours"
	case StackOverflow:
		return "stackoverflow"
	case BV10:
		return "bv10"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Entry is one corpus grammar with the expectations Table 1 reports.
// Paper* fields are the published numbers (for rows reconstructed rather than
// copied from the paper, they are the paper's numbers for the same-named row
// and serve as a scale reference, not an exact target).
type Entry struct {
	Name     string
	Category Category
	Source   string
	// Ambiguous is whether the grammar is ambiguous (Table 1 "Amb?").
	Ambiguous bool
	// Exact records that Source is character-for-character the grammar in
	// the paper (true only for figure1/figure3/figure7); reconstructed rows
	// match the published conflict structure but not necessarily every count.
	Exact bool
	// PaperNonterms/PaperProds/PaperStates/PaperConflicts are Table 1's
	// complexity columns.
	PaperNonterms, PaperProds, PaperStates, PaperConflicts int
	// PaperUnif/PaperNonunif/PaperTimeout are Table 1's outcome columns.
	PaperUnif, PaperNonunif, PaperTimeout int
	// Note documents how a reconstructed grammar was built.
	Note string
}

var registry = map[string]*Entry{}

// table1Order is the exact row order of the paper's Table 1. Registration
// happens across several files whose init order is alphabetical, so the
// accessors sort by this list instead.
var table1Order = []string{
	"figure1", "figure3", "figure7", "ambfailed01", "abcd", "simp2", "xi", "eqn",
	"java-ext1", "java-ext2",
	"stackexc01", "stackexc02",
	"stackovf01", "stackovf02", "stackovf03", "stackovf04", "stackovf05",
	"stackovf06", "stackovf07", "stackovf08", "stackovf09", "stackovf10",
	"SQL.1", "SQL.2", "SQL.3", "SQL.4", "SQL.5",
	"Pascal.1", "Pascal.2", "Pascal.3", "Pascal.4", "Pascal.5",
	"C.1", "C.2", "C.3", "C.4", "C.5",
	"Java.1", "Java.2", "Java.3", "Java.4", "Java.5",
}

func register(e *Entry) {
	if _, dup := registry[e.Name]; dup {
		panic("corpus: duplicate grammar " + e.Name)
	}
	for _, n := range table1Order {
		if n == e.Name {
			registry[e.Name] = e
			return
		}
	}
	panic("corpus: grammar " + e.Name + " not in the Table 1 roster")
}

// order returns the registered names in Table 1 order.
func order() []string {
	out := make([]string, 0, len(registry))
	for _, n := range table1Order {
		if _, ok := registry[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// Get returns the entry for a grammar name.
func Get(name string) (*Entry, bool) {
	e, ok := registry[name]
	return e, ok
}

// Names returns all grammar names in Table 1 order.
func Names() []string { return order() }

// ByCategory returns the entries of one category, in Table 1 order.
func ByCategory(c Category) []*Entry {
	var out []*Entry
	for _, n := range order() {
		if registry[n].Category == c {
			out = append(out, registry[n])
		}
	}
	return out
}

// All returns every entry in Table 1 order.
func All() []*Entry {
	names := order()
	out := make([]*Entry, 0, len(names))
	for _, n := range names {
		out = append(out, registry[n])
	}
	return out
}

// Grammar parses and returns the entry's grammar, panicking on error (corpus
// sources are embedded and tested).
func (e *Entry) Grammar() *grammar.Grammar { return gdl.MustParse(e.Name, e.Source) }

// SortedNames returns all names sorted lexicographically (for deterministic
// property tests).
func SortedNames() []string {
	ns := Names()
	sort.Strings(ns)
	return ns
}

// SmokeNames is the small fixed subset the fast tiers (cexcampaign diff, fix
// and restart under -smoke, verify.sh) run against: seconds, not minutes,
// while still covering precedence declarations (simp2, SQL.1), an ambiguous
// textbook grammar (figure1), an unambiguous one (figure3), and a
// conflict-dense one (stackovf10).
func SmokeNames() []string {
	return []string{"figure1", "figure3", "simp2", "stackovf10", "SQL.1"}
}
