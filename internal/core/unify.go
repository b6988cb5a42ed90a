package core

import (
	"context"
	"fmt"

	"lrcex/internal/faults"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// CostModel weighs the product-parser actions (Section 5.4: "the algorithm
// imposes different costs on different kinds of actions and considers
// configurations in order of increasing cost"). Production steps cost more
// than transitions so that self-embedding productions cannot starve the
// frontier, and repeating a production step already present in a
// configuration costs more still.
type CostModel struct {
	Shift       int // joint forward transition
	RevShift    int // joint reverse transition
	Reduce      int // reduction on either side
	ProdStep    int // forward production step
	RevProdStep int // reverse production step
	DupProdStep int // extra penalty when the stepped-to item repeats in the side
	// MaxItemOccurrences bounds how many times the same (state, item) node
	// may appear within one side's item sequence. Together with the
	// shortest-path restriction this makes the search space finite, so the
	// frontier of an unambiguous conflict runs dry instead of growing
	// forever (the paper handles this case purely by the time limit; the
	// cap trades completeness on extremely self-embedded witnesses for
	// fast definitive answers on grammars like Figure 3).
	MaxItemOccurrences int
}

// DefaultCosts is the cost model used by the evaluation; the ablation bench
// varies it.
var DefaultCosts = CostModel{
	Shift:              1,
	RevShift:           1,
	Reduce:             1,
	ProdStep:           10,
	RevProdStep:        10,
	DupProdStep:        50,
	MaxItemOccurrences: 4,
}

// withDefaults replaces zero fields with the DefaultCosts values so partially
// specified models behave sensibly.
func (m CostModel) withDefaults() CostModel {
	def := DefaultCosts
	if m.Shift == 0 {
		m.Shift = def.Shift
	}
	if m.RevShift == 0 {
		m.RevShift = def.RevShift
	}
	if m.Reduce == 0 {
		m.Reduce = def.Reduce
	}
	if m.ProdStep == 0 {
		m.ProdStep = def.ProdStep
	}
	if m.RevProdStep == 0 {
		m.RevProdStep = def.RevProdStep
	}
	if m.DupProdStep == 0 {
		m.DupProdStep = def.DupProdStep
	}
	if m.MaxItemOccurrences == 0 {
		m.MaxItemOccurrences = def.MaxItemOccurrences
	}
	return m
}

// config is a search state of the outward search (Figure 8): two item
// sequences with their partial derivations (persistent, structure-shared —
// see pside.go), plus bookkeeping.
type config struct {
	s1, s2 side
	cost   int
	// revTrans counts joint reverse transitions: the number of leaves that
	// precede the conflict point, i.e. the final dot position.
	revTrans int
	// orig1/orig2 hold the index of the original conflict item within each
	// item sequence, or -1 once the reduction consuming it has happened
	// (completing Stage 1 resp. Stage 2).
	orig1, orig2 int
}

func (c *config) stage1Done() bool { return c.orig1 < 0 }
func (c *config) stage2Done() bool { return c.orig2 < 0 }

// hashKey combines the dedup key material — the two item-sequence rolling
// hashes plus the stage markers — into the 64-bit visited-table key. The
// derivation lists are deliberately excluded, exactly as in the byte-string
// key this replaces.
func (c *config) hashKey() uint64 {
	h := mix64(c.s1.hash() ^ 0x9e3779b97f4a7c15)
	h = mix64(h ^ (c.s2.hash() * hashBase))
	return mix64(h ^ uint64(uint32(c.orig1+1)) ^ uint64(uint32(c.orig2+1))<<32)
}

// unifyResult is a successful unifying counterexample.
type unifyResult struct {
	nonterminal grammar.Sym
	deriv1      *Deriv // derivation using the reduce item
	deriv2      *Deriv // derivation using the shift (or second reduce) item
	dot         int    // leaves before the conflict point
}

// SearchStats aggregates the measurable work of the counterexample searches:
// the unifying search's frontier traffic and allocation footprint, plus the
// breadth-first path searches' expansions. Per-conflict values hang off
// Example.Stats; Finder.Stats() returns the running totals.
type SearchStats struct {
	// Expanded is the number of configurations popped and expanded by the
	// unifying search.
	Expanded int64
	// Pushed is the number of configurations that entered the frontier
	// (successors that survived dedup).
	Pushed int64
	// DedupHits counts successors dropped because a structurally equal
	// configuration had already been visited.
	DedupHits int64
	// PeakFrontier is the high-water mark of the frontier size (max across
	// conflicts in Finder totals).
	PeakFrontier int64
	// AllocBytes approximates the bytes of persistent search structure
	// allocated: cons cells (items + derivations) and configurations. It
	// deliberately counts only search-owned allocations, so it is comparable
	// across runs regardless of GC or concurrency.
	AllocBytes int64
	// PathExpanded is the number of vertices expanded by the
	// lookahead-sensitive path searches (shortest path, other-side replay,
	// and the joint reduce/reduce search). The shortest-path search runs once
	// per Finder for all conflicts, so it counts in Finder totals only, never
	// in an Example's.
	PathExpanded int64
}

// String formats the stats as a one-line summary, e.g.
//
//	expanded 1204, pushed 2307, dedup hits 312, peak frontier 97, path expanded 58, 216.4 KiB search memory
func (s SearchStats) String() string {
	return fmt.Sprintf("expanded %d, pushed %d, dedup hits %d, peak frontier %d, path expanded %d, %s search memory",
		s.Expanded, s.Pushed, s.DedupHits, s.PeakFrontier, s.PathExpanded, formatBytes(s.AllocBytes))
}

// formatBytes renders a byte count with a binary unit suffix.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// Add accumulates o into s, taking the max for PeakFrontier.
func (s *SearchStats) Add(o SearchStats) {
	s.Expanded += o.Expanded
	s.Pushed += o.Pushed
	s.DedupHits += o.DedupHits
	if o.PeakFrontier > s.PeakFrontier {
		s.PeakFrontier = o.PeakFrontier
	}
	s.AllocBytes += o.AllocBytes
	s.PathExpanded += o.PathExpanded
}

// unifySearch runs the outward search from the conflict state (Section 5.2).
type unifySearch struct {
	g     *graph
	costs CostModel
	c     lr.Conflict
	tIdx  int // dense index of the conflict terminal

	// allowedState restricts joint reverse transitions to states on the
	// shortest lookahead-sensitive path (Section 6); nil = extended search.
	allowedState []bool

	maxConfigs int
	maxArena   int64

	mem      *searchMem
	frontier *heapFrontier

	// out receives the successor candidates of the expansion in flight, in
	// emission order; its storage is mem.emitBuf.
	out []config

	// stats
	Expanded  int
	Pushed    int
	DedupHits int
	// Cancelled is set when the context passed to run was done (per-conflict
	// deadline or caller cancellation — the caller distinguishes the two by
	// inspecting its parent context).
	Cancelled bool
	Capped    bool
	// MemCapped is set when the search aborted at the MaxArenaBytes budget
	// (checked between expansions against the same accounting AllocBytes
	// reports, so the budget — like MaxConfigs — is deterministic).
	MemCapped bool
}

// newUnifySearch prepares a search over mem, which is reset here and must
// not be shared with a concurrently running search.
func newUnifySearch(g *graph, c lr.Conflict, costs CostModel, allowedState []bool, maxConfigs int, maxArena int64, mem *searchMem) *unifySearch {
	mem.resetSearch()
	return &unifySearch{
		g: g, costs: costs, c: c,
		tIdx:         g.a.G.TermIndex(c.Sym),
		allowedState: allowedState,
		maxConfigs:   maxConfigs,
		maxArena:     maxArena,
		mem:          mem,
		frontier:     &mem.heap,
	}
}

// stats snapshots the search's contribution to SearchStats.
func (u *unifySearch) stats() SearchStats {
	return SearchStats{
		Expanded:     int64(u.Expanded),
		Pushed:       int64(u.Pushed),
		DedupHits:    int64(u.DedupHits),
		PeakFrontier: int64(u.frontier.peakSize()),
		AllocBytes:   u.mem.ac.bytes(),
	}
}

// push dedups the candidate c (which lives in an emit buffer) and, when it is
// new, copies it into the config arena and onto the frontier. Deduplicated
// candidates are never copied: one visited-table probe decides admission and
// leaves the slot the record fills.
func (u *unifySearch) push(c *config) {
	u.mem.ac.configs++
	h := c.hashKey()
	slot, dup := u.mem.visited.probe(h, c)
	if dup {
		u.DedupHits++
		return
	}
	p := u.mem.configs.alloc()
	*p = *c
	u.mem.visited.record(slot, h, p)
	u.frontier.push(p)
	u.Pushed++
}

// run returns a unifying counterexample, or nil when the search space is
// exhausted (definitely none under the restriction) or limits were hit
// (Cancelled / Capped distinguish the cases). Cancellation is cooperative:
// the frontier loop polls ctx every checkEvery expansions, so a cancelled
// search stops within a bounded amount of work instead of at a wall-clock
// poll.
func (u *unifySearch) run(ctx context.Context) *unifyResult {
	if !u.seed() {
		return nil
	}

	for u.frontier.size() > 0 {
		if u.Expanded%checkEvery == 0 && ctx.Err() != nil {
			u.Cancelled = true
			return nil
		}
		// The configuration cap is deterministic (unlike the wall clock):
		// at most maxConfigs configurations are expanded, and the winning
		// configuration may be the maxConfigs-th itself.
		if u.maxConfigs > 0 && u.Expanded >= u.maxConfigs {
			u.Capped = true
			return nil
		}
		// The arena budget (Options.MaxArenaBytes) aborts the search before
		// the expansion that would run past it: allocation is monotone, so a
		// search already at most one expansion's successors over the limit
		// stops here and degrades to the nonunifying construction — the
		// memory rung of the degradation ladder. A search whose footprint is
		// exactly the budget is still allowed to finish.
		if u.maxArena > 0 && u.mem.ac.bytes() > u.maxArena {
			u.MemCapped = true
			return nil
		}
		c := u.frontier.pop()
		u.Expanded++
		if res := u.success(c); res != nil {
			// The winning derivations live in the search arena; deep-copy
			// them so the arena can be recycled for the next conflict.
			res.deriv1 = cloneDeriv(res.deriv1)
			res.deriv2 = cloneDeriv(res.deriv2)
			return res
		}
		// Generation and admission are split: expand emits this
		// configuration's successor candidates into a buffer, and push —
		// the only step that consults the visited table — admits them in
		// emission order. Candidate content never depends on dedup state,
		// so the split is unobservable.
		u.out = u.mem.emitBuf[:0]
		u.expand(c)
		u.mem.emitBuf = u.out
		for i := range u.out {
			u.push(&u.out[i])
		}
	}
	return nil
}

// checkEvery is the expansion interval of the cooperative cancellation poll:
// frequent enough to stop within microseconds of a deadline, rare enough that
// the atomic context check never shows up in profiles.
const checkEvery = 256

// seed pushes the initial configuration — the two conflict items with empty
// context (Figure 8) — and reports whether the conflict maps onto the graph.
func (u *unifySearch) seed() bool {
	n1, ok1 := u.g.lookup(u.c.State, u.c.Item1)
	n2, ok2 := u.g.lookup(u.c.State, u.c.Item2)
	if !ok1 || !ok2 {
		return false
	}
	u.push(&config{
		s1:    sideOf(n1, u.mem),
		s2:    sideOf(n2, u.mem),
		orig1: 0, orig2: 0,
	})
	return true
}

// success checks the completion condition of Section 5.4: both item
// sequences end in the bracket form [..., ? -> ... • A ..., ? -> ... A • ...]
// with a single derivation of the same nonterminal A on each side, the
// stages are complete, and the two derivations differ. (Leading context
// items left over from reverse production steps are harmless: the
// derivations already span exactly one A.)
func (u *unifySearch) success(c *config) *unifyResult {
	if !c.stage1Done() || !c.stage2Done() {
		return nil
	}
	if c.s1.len() < 2 || c.s2.len() < 2 ||
		c.s1.numDerivs() != 1 || c.s2.numDerivs() != 1 {
		return nil
	}
	d1, d2 := c.s1.singleDeriv(), c.s2.singleDeriv()
	if d1.Sym != d2.Sym || d1.Prod < 0 || d2.Prod < 0 || d1.Equal(d2) {
		return nil
	}
	// Both tails must bracket exactly A: the second-to-last item has • A and
	// the last item is its successor.
	for _, s := range [...]side{c.s1, c.s2} {
		prev, last := s.secondLast(), s.last()
		if u.g.dotSym(prev) != d1.Sym || u.g.fwdTrans[prev] != last {
			return nil
		}
	}
	return &unifyResult{nonterminal: d1.Sym, deriv1: d1, deriv2: d2, dot: c.revTrans}
}

// emit appends a successor candidate. It writes the fields into the buffer
// slot in place: building a config value and appending it would move all 96
// bytes a second time per candidate.
func (u *unifySearch) emit(s1, s2 side, cost, revTrans, orig1, orig2 int) {
	if len(u.out) < cap(u.out) {
		u.out = u.out[:len(u.out)+1]
	} else {
		u.out = append(u.out, config{})
	}
	p := &u.out[len(u.out)-1]
	p.s1, p.s2 = s1, s2
	p.cost, p.revTrans, p.orig1, p.orig2 = cost, revTrans, orig1, orig2
}

// expand generates the successor configurations of Figure 10 into u.out. The
// faults injection point at the top simulates a search-core bug
// mid-expansion; with the subsystem disabled (the default) it is a single
// atomic load.
func (u *unifySearch) expand(c *config) {
	faults.PanicAt(faults.CoreUnifyExpand)
	g := u.g
	a := g.a
	gr := a.G
	maxOcc := int32(u.costs.MaxItemOccurrences)

	last1 := c.s1.last()
	last2 := c.s2.last()
	d1, d2 := g.dotSym(last1), g.dotSym(last2)

	// Forward transition (Figure 10(a)): both last items move on Z; the
	// symbol joins both derivation lists as a leaf.
	if d1 != grammar.NoSym && d1 == d2 {
		m1, m2 := g.fwdTrans[last1], g.fwdTrans[last2]
		if m1 != noNode && m2 != noNode &&
			c.s1.count(m1) < maxOcc && c.s2.count(m2) < maxOcc {
			u.emit(c.s1.withAppended(m1, g.leafOf(d1), u.mem),
				c.s2.withAppended(m2, g.leafOf(d1), u.mem),
				c.cost+u.costs.Shift, c.revTrans, c.orig1, c.orig2)
		}
	}

	// Forward production steps (Figure 10(b)) on either side. When both
	// sides sit before the same symbol, expanding it on one side is never
	// necessary: any witness that expands an aligned nonterminal identically
	// on both sides is represented more abstractly by the joint transition,
	// and the expansions cannot differ because production spans nest within
	// the aligned symbol's span. Skipping the aligned case keeps the
	// restricted search space finite for unambiguous conflicts.
	aligned := d1 == d2
	if !aligned && d1 != grammar.NoSym && !gr.IsTerminal(d1) {
		for _, m := range g.prodSteps[last1] {
			occ := c.s1.count(m)
			if occ >= maxOcc {
				continue
			}
			cost := c.cost + u.costs.ProdStep
			if occ > 0 {
				cost += u.costs.DupProdStep
			}
			u.emit(c.s1.withAppended(m, nil, u.mem), c.s2, cost, c.revTrans, c.orig1, c.orig2)
		}
	}
	if !aligned && d2 != grammar.NoSym && !gr.IsTerminal(d2) {
		for _, m := range g.prodSteps[last2] {
			occ := c.s2.count(m)
			if occ >= maxOcc {
				continue
			}
			cost := c.cost + u.costs.ProdStep
			if occ > 0 {
				cost += u.costs.DupProdStep
			}
			u.emit(c.s1, c.s2.withAppended(m, nil, u.mem), cost, c.revTrans, c.orig1, c.orig2)
		}
	}

	// Reductions (Figure 10(f)) on either side, when enough items are
	// present; otherwise preparation steps below supply context.
	need1 := u.tryReduce(c, 1)
	need2 := u.tryReduce(c, 2)

	if need1 || need2 {
		u.prepare(c)
	}
}

// tryReduce attempts a reduction on the given side; it returns true when the
// side's last item is a reduce item that still lacks context items (so the
// caller should generate preparation steps).
func (u *unifySearch) tryReduce(c *config, which int) (needsPrep bool) {
	g := u.g
	a := g.a
	gr := a.G

	s, o := c.s1, c.s2
	orig, origOther := c.orig1, c.orig2
	if which == 2 {
		s, o = c.s2, c.s1
		orig, origOther = c.orig2, c.orig1
	}
	last := s.last()
	it := g.itemOf(last)
	if a.DotSym(it) != grammar.NoSym {
		return false
	}
	pid := a.Prod(it)
	l := int32(len(gr.Production(pid).RHS))
	m := s.len()
	if m < l+2 {
		return true // not enough items: needs preparation
	}

	// Lookahead guard: when the next joint symbol is forced by the other
	// side's last item being at a terminal, the reduction must tolerate it.
	// (The conflict items' own reductions satisfy this by the definition of
	// the conflict.)
	otherLast := o.last()
	if next := g.dotSym(otherLast); next != grammar.NoSym && gr.IsTerminal(next) {
		la := g.lookaheadOf(last)
		if !la.Has(gr.TermIndex(next)) {
			return false
		}
	}

	before := s.itemFromRight(l + 1) // the item with • before the reduced nonterminal
	gotoNode := g.fwdTrans[before]
	if gotoNode == noNode {
		return false
	}

	// Wrap the last l derivations into one tree for the nonterminal;
	// side.reduced fills children with the popped derivations.
	if s.numDerivs() < l {
		return false // defensive; structurally unreachable
	}
	children := u.mem.children.alloc(int(l))
	tree := u.mem.newDeriv(Deriv{Sym: gr.Production(pid).LHS, Prod: pid, Children: children})
	ns := s.reduced(l+1, l, gotoNode, tree, children, u.mem)

	newOrig := orig
	if int32(orig) >= m-l-1 {
		newOrig = -1 // the reduction consumed the original conflict item
	}

	cost := c.cost + u.costs.Reduce
	if which == 1 {
		u.emit(ns, o, cost, c.revTrans, newOrig, origOther)
	} else {
		u.emit(o, ns, cost, c.revTrans, origOther, newOrig)
	}
	return false
}

// prepare generates the backward actions of Figures 10(c)–(e): joint reverse
// transitions when both heads have consumed a symbol, and per-side reverse
// production steps when a head sits at the start of its production.
func (u *unifySearch) prepare(c *config) {
	g := u.g
	a := g.a
	maxOcc := int32(u.costs.MaxItemOccurrences)

	head1, head2 := c.s1.first(), c.s2.first()
	dot1 := a.Dot(g.itemOf(head1))
	dot2 := a.Dot(g.itemOf(head2))

	if dot1 > 0 && dot2 > 0 {
		// Joint reverse transition (Figure 10(c)): group predecessor nodes by
		// state and prepend matching pairs. The symbol is the head state's
		// accessing symbol, identical for both heads.
		z := g.prevSym(head1)
		for _, m1 := range g.revTrans[head1] {
			st := g.stateOf(m1)
			if u.allowedState != nil && !u.allowedState[st] {
				continue
			}
			// Stage 1 guard: the item prepended to the first parser must
			// still admit the conflict terminal (Section 5.3).
			if !c.stage1Done() && !g.lookaheadOf(m1).Has(u.tIdx) {
				continue
			}
			if c.s1.count(m1) >= maxOcc {
				continue
			}
			for _, m2 := range g.revTrans[head2] {
				if g.stateOf(m2) != st {
					continue
				}
				if c.s2.count(m2) >= maxOcc {
					continue
				}
				u.emit(c.s1.withPrepended(m1, g.leafOf(z), u.mem),
					c.s2.withPrepended(m2, g.leafOf(z), u.mem),
					c.cost+u.costs.RevShift, c.revTrans+1, bump(c.orig1), bump(c.orig2))
			}
		}
	}
	if dot1 == 0 {
		// Reverse production step on the first parser (Figure 10(d)). Until
		// Stage 1 completes, the conflict terminal must be able to follow
		// the sub-production inside the prepended item's context: that is
		// followL of the prepended item (not its plain item lookahead, which
		// describes what follows the *whole* production).
		for _, m := range g.revProdSteps[head1] {
			if !c.stage1Done() && !g.followHas(g.itemOf(m), g.lookaheadOf(m), u.tIdx) {
				continue
			}
			occ := c.s1.count(m)
			if occ >= maxOcc {
				continue
			}
			cost := c.cost + u.costs.RevProdStep
			if occ > 0 {
				cost += u.costs.DupProdStep
			}
			u.emit(c.s1.withPrepended(m, nil, u.mem), c.s2, cost, c.revTrans, bump(c.orig1), c.orig2)
		}
	}
	if dot2 == 0 {
		// Reverse production step on the second parser (Figure 10(e)).
		for _, m := range g.revProdSteps[head2] {
			occ := c.s2.count(m)
			if occ >= maxOcc {
				continue
			}
			cost := c.cost + u.costs.RevProdStep
			if occ > 0 {
				cost += u.costs.DupProdStep
			}
			u.emit(c.s1, c.s2.withPrepended(m, nil, u.mem), cost, c.revTrans, c.orig1, bump(c.orig2))
		}
	}
}

// bump shifts an original-item index for a prepend (indices move right).
func bump(orig int) int {
	if orig < 0 {
		return orig
	}
	return orig + 1
}
