package lr

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"lrcex/internal/grammar"
)

// ActionKind classifies a parse-table action.
type ActionKind uint8

// Parse actions.
const (
	ActionError ActionKind = iota
	ActionShift
	ActionReduce
	ActionAccept
)

// Action is one parse-table entry: shift to Target, or reduce by production
// Target.
type Action struct {
	Kind   ActionKind
	Target int
}

func (act Action) String() string {
	switch act.Kind {
	case ActionShift:
		return fmt.Sprintf("shift %d", act.Target)
	case ActionReduce:
		return fmt.Sprintf("reduce %d", act.Target)
	case ActionAccept:
		return "accept"
	default:
		return "error"
	}
}

// ConflictKind distinguishes shift/reduce from reduce/reduce conflicts.
type ConflictKind uint8

// Conflict kinds.
const (
	ShiftReduce ConflictKind = iota
	ReduceReduce
)

func (k ConflictKind) String() string {
	if k == ShiftReduce {
		return "shift/reduce"
	}
	return "reduce/reduce"
}

// Conflict is one unresolved parsing conflict: a pair of items in a state
// whose actions collide on Sym. For shift/reduce conflicts, Item1 is the
// reduce item and Item2 the shift item (so the counterexample search always
// reduces with parser 1 and shifts with parser 2, matching the paper). For
// reduce/reduce conflicts both are reduce items and Syms carries the full
// lookahead intersection, with Sym an arbitrary representative.
type Conflict struct {
	State int
	Kind  ConflictKind
	Item1 Item // the (first) reduce item
	Item2 Item // the shift item, or the second reduce item
	Sym   grammar.Sym
	Syms  []grammar.Sym
}

// Describe renders the conflict in CUP's style.
func (c Conflict) Describe(a *Automaton) string {
	if c.Kind == ShiftReduce {
		return fmt.Sprintf("shift/reduce conflict in state #%d between reduction on %s and shift on %s under symbol %s",
			c.State, a.ItemString(c.Item1), a.ItemString(c.Item2), a.G.Name(c.Sym))
	}
	return fmt.Sprintf("reduce/reduce conflict in state #%d between reduction on %s and reduction on %s under symbol %s",
		c.State, a.ItemString(c.Item1), a.ItemString(c.Item2), a.G.Name(c.Sym))
}

// Resolution records a conflict resolved by precedence/associativity
// declarations (Section 2.4), which therefore needs no counterexample.
type Resolution struct {
	Conflict Conflict
	// Choice is the winning action: "shift", "reduce", or "error" (nonassoc).
	Choice string
}

// Table is the LALR(1) parse table plus the conflicts discovered while
// filling it.
type Table struct {
	A *Automaton
	// Actions[state] maps a terminal to its resolved action. Unresolved
	// conflicts are settled the yacc way: shift beats reduce, and among
	// reductions the lower production id wins.
	Actions []map[grammar.Sym]Action
	// Gotos[state] maps a nonterminal to the successor state.
	Gotos []map[grammar.Sym]int
	// Conflicts are the unresolved conflicts, ordered by (state, items).
	Conflicts []Conflict
	// Resolved are conflicts settled by precedence declarations.
	Resolved []Resolution
}

// BuildTable constructs the parse table and conflict list for the automaton.
func BuildTable(a *Automaton) *Table {
	t := &Table{A: a}
	g := a.G
	t.Actions = make([]map[grammar.Sym]Action, len(a.States))
	t.Gotos = make([]map[grammar.Sym]int, len(a.States))

	// Scratch reused across states: the reduce items of the current state,
	// and the elements of one lookahead set.
	var reduces, elems []int
	for _, st := range a.States {
		// Reduce items in item-id order for determinism.
		reduces = reduces[:0]
		numActs := 0
		for idx, it := range st.Items {
			if a.IsReduce(it) {
				reduces = append(reduces, idx)
				numActs += st.Lookahead[idx].Len()
			}
		}
		slices.SortFunc(reduces, func(i, j int) int { return cmp.Compare(st.Items[i], st.Items[j]) })

		numGotos := 0
		for x := range st.Trans {
			if g.IsTerminal(x) {
				numActs++
			} else {
				numGotos++
			}
		}
		acts := make(map[grammar.Sym]Action, numActs)
		gotos := make(map[grammar.Sym]int, numGotos)
		for x, tgt := range st.Trans {
			if g.IsTerminal(x) {
				acts[x] = Action{ActionShift, tgt}
			} else {
				gotos[x] = tgt
			}
		}

		// blocked marks terminals turned into syntax errors by %nonassoc.
		var blocked map[grammar.Sym]bool

		// Shift/reduce conflicts: structural, per (reduce item, shift item).
		for _, idx := range reduces {
			redItem := st.Items[idx]
			pid := a.Prod(redItem)
			elems = st.Lookahead[idx].AppendElems(elems[:0])
			for _, ti := range elems {
				term := g.TermAt(ti)
				if _, shifts := st.Trans[term]; !shifts {
					continue
				}
				choice := t.resolveSR(pid, term)
				for _, it := range st.Items {
					if a.DotSym(it) != term {
						continue
					}
					c := Conflict{
						State: st.ID, Kind: ShiftReduce,
						Item1: redItem, Item2: it,
						Sym: term, Syms: []grammar.Sym{term},
					}
					if choice != "" {
						t.Resolved = append(t.Resolved, Resolution{Conflict: c, Choice: choice})
					} else {
						t.Conflicts = append(t.Conflicts, c)
					}
				}
				switch choice {
				case "reduce":
					acts[term] = Action{ActionReduce, pid}
				case "error":
					delete(acts, term)
					if blocked == nil {
						blocked = make(map[grammar.Sym]bool)
					}
					blocked[term] = true
				}
			}
		}

		// Reduce/reduce conflicts: pairwise lookahead intersections. These are
		// never resolved by precedence (matching yacc/CUP).
		for i := 0; i < len(reduces); i++ {
			for j := i + 1; j < len(reduces); j++ {
				ii, jj := reduces[i], reduces[j]
				inter := st.Lookahead[ii].Intersection(st.Lookahead[jj])
				if inter.IsEmpty() {
					continue
				}
				var syms []grammar.Sym
				for _, ti := range inter.Elems() {
					syms = append(syms, g.TermAt(ti))
				}
				t.Conflicts = append(t.Conflicts, Conflict{
					State: st.ID, Kind: ReduceReduce,
					Item1: st.Items[ii], Item2: st.Items[jj],
					Sym: syms[0], Syms: syms,
				})
			}
		}

		// Fill reduce/accept actions where no stronger action exists.
		for _, idx := range reduces {
			it := st.Items[idx]
			pid := a.Prod(it)
			want := Action{ActionReduce, pid}
			if pid == 0 {
				want = Action{ActionAccept, 0}
			}
			elems = st.Lookahead[idx].AppendElems(elems[:0])
			for _, ti := range elems {
				term := g.TermAt(ti)
				if blocked[term] {
					continue
				}
				cur, exists := acts[term]
				switch {
				case !exists:
					acts[term] = want
				case cur.Kind == ActionReduce && want.Kind == ActionReduce && pid < cur.Target:
					acts[term] = want
				}
			}
		}

		t.Actions[st.ID] = acts
		t.Gotos[st.ID] = gotos
	}
	sort.SliceStable(t.Conflicts, func(i, j int) bool {
		a, b := t.Conflicts[i], t.Conflicts[j]
		if a.State != b.State {
			return a.State < b.State
		}
		if a.Item1 != b.Item1 {
			return a.Item1 < b.Item1
		}
		return a.Item2 < b.Item2
	})
	return t
}

// resolveSR applies precedence declarations to a shift/reduce conflict
// between reducing production pid and shifting term. It returns "shift",
// "reduce", "error", or "" when undeclared (unresolved).
func (t *Table) resolveSR(pid int, term grammar.Sym) string {
	g := t.A.G
	prodPrec := g.Production(pid).Prec
	termPrec, assoc := g.Prec(term)
	if prodPrec == 0 || termPrec == 0 {
		return ""
	}
	switch {
	case prodPrec > termPrec:
		return "reduce"
	case prodPrec < termPrec:
		return "shift"
	case assoc == grammar.AssocLeft:
		return "reduce"
	case assoc == grammar.AssocRight:
		return "shift"
	case assoc == grammar.AssocNone:
		return "error"
	}
	return ""
}
