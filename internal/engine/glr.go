package engine

import (
	"fmt"
	"slices"

	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// The driver's budgets. maxStacks caps the simultaneous stacks of one parse;
// exceeding it yields ErrForkLimit, a budget verdict rather than a parse
// verdict. maxTrees caps the distinct trees CountParses counts.
const (
	maxStacks = 4096
	maxTrees  = 16
)

// GLR is a generalized LR driver: unlike Parser it follows every action of a
// nondeterministic table entry, forking the parse like Tomita's algorithm (the
// paper's Section 8 relates counterexamples to GLR). Its one parameter is the
// action source:
//
//   - NewGLR reads the automaton's full action set, the losing side of every
//     conflict included, and tells parse trees apart. It measures the
//     grammar's language, which precedence declarations never change: the
//     independent ambiguity oracle (see Oracle).
//   - NewReplay reads the resolved Table.Actions and forks only at the
//     entries of an unresolved conflict ("either action may be taken", never
//     yacc's shift-wins default). It stops at the first accepting stack. It
//     measures the language the generated parser accepts, which a %nonassoc
//     declaration (or any resolution) can shrink: repair validation replays
//     its probe sentences here.
//
// The implementation is a breadth-first simulation over parser stacks rather
// than a graph-structured stack: worst-case exponential, but the inputs fed
// to it (counterexamples) are short. Stacks and trees are hash-consed to
// exact int ids, so each dedup is one lookup.
type GLR struct {
	tbl *lr.Table
	// forks, non-nil for a replay driver, marks the (state, terminal)
	// entries of the unresolved conflicts.
	forks map[[2]int]bool
}

// NewGLR returns the tree-counting driver over the full action set.
func NewGLR(tbl *lr.Table) *GLR { return &GLR{tbl: tbl} }

// NewReplay returns the recognizer over the resolved action table.
func NewReplay(tbl *lr.Table) *GLR {
	g := &GLR{tbl: tbl, forks: map[[2]int]bool{}}
	for _, c := range tbl.Conflicts {
		for _, sym := range c.Syms {
			g.forks[[2]int{c.State, int(sym)}] = true
		}
	}
	return g
}

func (g *GLR) replay() bool { return g.forks != nil }

// stack is one parser stack, hash-consed within a parse by (state, tree id,
// parent id): equal stacks are one value with one id, so forks share
// structure and dedup compares ids. A replay builds no trees, so its key is
// the state sequence.
type stack struct {
	id    int32
	state int
	tree  int32 // 0 at the bottom and in a replay
	prev  *stack
	set   int // the last position whose stack set holds this stack
}

// parse is the state of one run.
type parse struct {
	*GLR
	stacks map[[3]int32]*stack
	// ids hash-conses trees and child lists: a tree is (production, symbol,
	// children), a leaf has production -1 and no children, and a list cell
	// is (-2, head tree, tail list). Ids start at 1; 0 is the empty list.
	ids      map[[3]int32]int32
	acts     []lr.Action
	accepted bool
	trees    []int32
}

func (p *parse) intern(k [3]int32) int32 {
	id, ok := p.ids[k]
	if !ok {
		id = int32(len(p.ids) + 1)
		p.ids[k] = id
	}
	return id
}

// Accepts reports whether some branch of the parse accepts the terminal
// string.
func (g *GLR) Accepts(words []grammar.Sym) (bool, error) {
	p, err := g.run(words)
	return p.accepted, err
}

// CountParses returns the number of distinct parse trees of the terminal
// string, up to maxTrees; 0 is a syntax error on every branch. A replay
// driver tells no trees apart.
func (g *GLR) CountParses(words []grammar.Sym) (int, error) {
	p, err := g.run(words)
	if err != nil {
		return 0, err
	}
	return len(p.trees), nil
}

func (g *GLR) run(words []grammar.Sym) (*parse, error) {
	p := &parse{GLR: g, stacks: map[[3]int32]*stack{}, ids: map[[3]int32]int32{}}
	words = append(words[:len(words):len(words)], grammar.EOF)
	stacks := []*stack{{}}
	for pos, la := range words {
		// Close the stack set under reductions for this lookahead,
		// collecting the shift successors.
		var next []*stack
		work := append([]*stack(nil), stacks...)
		for len(work) > 0 {
			if len(work)+len(next) > maxStacks {
				return p, fmt.Errorf("%w (%d stacks)", ErrForkLimit, maxStacks)
			}
			st := work[len(work)-1]
			work = work[:len(work)-1]
			for _, act := range p.actions(st.state, la) {
				switch act.Kind {
				case lr.ActionShift:
					var leaf int32
					if !p.replay() {
						leaf = p.intern([3]int32{-1, int32(la), 0})
					}
					if ns := p.push(st, act.Target, leaf); ns.enter(pos + 1) {
						next = append(next, ns)
					}
				case lr.ActionReduce:
					if ns := p.reduce(st, act.Target); ns != nil && ns.enter(pos) {
						work = append(work, ns)
					}
				case lr.ActionAccept:
					if p.accept(st) {
						return p, nil
					}
				}
			}
		}
		if stacks = next; len(stacks) == 0 {
			break
		}
	}
	// Closing pass: stacks that shifted $ now sit in a state whose only item
	// is START' -> start $ •; its reduction is the accept.
	for _, st := range stacks {
		for _, act := range p.actions(st.state, grammar.EOF) {
			if act.Kind == lr.ActionAccept && p.accept(st) {
				return p, nil
			}
		}
	}
	return p, nil
}

// enter adds the stack to position pos's stack set, reporting false when it
// is already there.
func (s *stack) enter(pos int) bool {
	if s.set == pos {
		return false
	}
	s.set = pos
	return true
}

// actions lists the actions the driver follows in a state under a terminal,
// in a slice the next call reuses.
func (p *parse) actions(state int, t grammar.Sym) []lr.Action {
	p.acts = p.acts[:0]
	if p.replay() && !p.forks[[2]int{state, int(t)}] {
		if act, ok := p.tbl.Actions[state][t]; ok {
			p.acts = append(p.acts, act)
		}
		return p.acts
	}
	// The full action set, reconstructed from the automaton since Table
	// keeps only the winners.
	a := p.tbl.A
	st := a.States[state]
	if tgt, ok := st.Trans[t]; ok {
		p.acts = append(p.acts, lr.Action{Kind: lr.ActionShift, Target: tgt})
	}
	for idx, it := range st.Items {
		if !a.IsReduce(it) || !st.Lookahead[idx].Has(a.G.TermIndex(t)) {
			continue
		}
		if pid := a.Prod(it); pid == 0 {
			p.acts = append(p.acts, lr.Action{Kind: lr.ActionAccept})
		} else {
			p.acts = append(p.acts, lr.Action{Kind: lr.ActionReduce, Target: pid})
		}
	}
	return p.acts
}

// push returns the unique stack with the given top over prev.
func (p *parse) push(prev *stack, state int, tree int32) *stack {
	k := [3]int32{int32(state), tree, prev.id}
	s, ok := p.stacks[k]
	if !ok {
		s = &stack{id: int32(len(p.stacks) + 1), state: state, tree: tree, prev: prev, set: -1}
		p.stacks[k] = s
	}
	return s
}

// reduce pops the production's RHS off the stack and pushes the goto state,
// or returns nil when the stack is too short or has no goto.
func (p *parse) reduce(st *stack, pid int) *stack {
	prod := p.tbl.A.G.Production(pid)
	var kids int32
	cur := st
	for range prod.RHS {
		if cur.prev == nil {
			return nil
		}
		if !p.replay() {
			kids = p.intern([3]int32{-2, cur.tree, kids})
		}
		cur = cur.prev
	}
	next, ok := p.tbl.Gotos[cur.state][prod.LHS]
	if !ok {
		return nil
	}
	var tree int32
	if !p.replay() {
		tree = p.intern([3]int32{int32(pid), int32(prod.LHS), kids})
	}
	return p.push(cur, next, tree)
}

// accept records an accepting stack and reports whether the run is done: a
// replay stops at the first, a tree-counting run keeps collecting. The
// accept reduction fires after $ was shifted, so the stack top is the $
// leaf and below it the start symbol's tree.
func (p *parse) accept(st *stack) bool {
	p.accepted = true
	if t := st.prev; !p.replay() && t != nil && t.tree != 0 && len(p.trees) < maxTrees && !slices.Contains(p.trees, t.tree) {
		p.trees = append(p.trees, t.tree)
	}
	return p.replay()
}

// Concretize rewrites a sentential form to a terminal string by expanding
// each nonterminal to one fixed terminal expansion. Ambiguity of the
// sentential form is preserved: the two derivations of a unifying
// counterexample stay distinct after substituting identical subtrees for the
// abstract leaves. It returns false if some nonterminal derives no terminal
// string.
//
// Expansion follows a min-derivation-height production choice, which
// guarantees termination (the chosen child heights strictly decrease) even
// in the presence of unit cycles like s -> s.
func Concretize(g *grammar.Grammar, syms []grammar.Sym) ([]grammar.Sym, bool) {
	height, choice := minHeights(g)
	var out []grammar.Sym
	var expand func(s grammar.Sym) bool
	expand = func(s grammar.Sym) bool {
		if g.IsTerminal(s) {
			out = append(out, s)
			return true
		}
		if height[s] < 0 {
			return false
		}
		for _, r := range g.Production(choice[s]).RHS {
			if !expand(r) {
				return false
			}
		}
		return true
	}
	for _, s := range syms {
		if !expand(s) {
			return nil, false
		}
	}
	return out, true
}

// minHeights computes, per nonterminal, the minimal derivation-tree height
// and a production achieving it (-1 height marks unproductive nonterminals).
func minHeights(g *grammar.Grammar) (height []int, choice []int) {
	const inf = int(^uint(0) >> 2)
	n := g.NumSymbols()
	height = make([]int, n)
	choice = make([]int, n)
	for s := 0; s < n; s++ {
		if g.IsTerminal(grammar.Sym(s)) {
			height[s] = 0
		} else {
			height[s] = inf
			choice[s] = -1
		}
	}
	for changed := true; changed; {
		changed = false
		for pid := 1; pid < g.NumProductions(); pid++ {
			p := g.Production(pid)
			h := 0
			for _, r := range p.RHS {
				if height[r] >= inf {
					h = inf
					break
				}
				if height[r] > h {
					h = height[r]
				}
			}
			if h < inf && h+1 < height[p.LHS] {
				height[p.LHS] = h + 1
				choice[p.LHS] = pid
				changed = true
			}
		}
	}
	for s := range height {
		if height[s] >= inf {
			height[s] = -1
		}
	}
	return height, choice
}
