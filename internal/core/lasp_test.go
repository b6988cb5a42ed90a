package core

import (
	"context"
	"fmt"
	"testing"

	"lrcex/internal/corpus"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// oracleShortestPath is the per-conflict shortest lookahead-sensitive path
// search the shared search replaced, kept as the oracle the shared paths are
// checked against: one BFS per conflict, over the conflict node's own
// reverse-reachable cone, stopping at the first popped vertex whose precise
// lookahead holds the conflict terminal.
func oracleShortestPath(g *graph, conflictNode node, conflictTerm grammar.Sym) (*laspPath, error) {
	a := g.a
	gr := a.G
	tIdx := gr.TermIndex(conflictTerm)

	eligible := g.reverseReachableInto(nil, conflictNode)

	interner := grammar.NewTermSetInterner()
	var follow grammar.TermSet // internFollow scratch
	eof := grammar.NewTermSet(gr.NumTerminals())
	eof.Add(gr.TermIndex(grammar.EOF))

	visited := make(map[uint64]bool, 256)
	var order []laspEntry

	startNode, ok := g.lookup(0, a.StartItem())
	if !ok {
		return nil, errUnreachableConflict
	}
	rootLA := int32(interner.Intern(eof))
	visited[laspKey(startNode, rootLA)] = true
	order = append(order, laspEntry{n: startNode, la: rootLA, parent: -1, sym: grammar.NoSym})

	found := -1
	for head := 0; head < len(order) && found < 0; head++ {
		cur := order[head]
		n, laID := cur.n, cur.la
		la := interner.Get(int(laID))

		if n == conflictNode && la.Has(tIdx) {
			found = head
			break
		}

		push := func(m node, mla int32, sym grammar.Sym) {
			if !eligible[m] {
				return
			}
			k := laspKey(m, mla)
			if visited[k] {
				return
			}
			visited[k] = true
			order = append(order, laspEntry{n: m, la: mla, parent: int32(head), sym: sym})
		}

		// Transition edge: preserve the precise lookahead set.
		if m := g.fwdTrans[n]; m != noNode {
			push(m, laID, g.dotSym(n))
		}
		// Production steps: lookahead becomes followL(item).
		if steps := g.prodSteps[n]; len(steps) > 0 {
			fid := g.internFollow(interner, g.itemOf(n), la, &follow)
			for _, m := range steps {
				push(m, fid, grammar.NoSym)
			}
		}
	}
	if found < 0 {
		return nil, errUnreachableConflict
	}

	// Reconstruct.
	var rev []laspStep
	for i := found; i >= 0; i = int(order[i].parent) {
		rev = append(rev, laspStep{Node: order[i].n, Sym: order[i].sym})
	}
	p := &laspPath{steps: make([]laspStep, 0, len(rev))}
	for i := len(rev) - 1; i >= 0; i-- {
		p.steps = append(p.steps, rev[i])
	}
	return p, nil
}

// CheckSharedPaths checks every conflict's shared shortest
// lookahead-sensitive path against the per-conflict oracle, node for node and
// symbol for symbol, on two Finders: one driven by a parallel FindAll, and a
// fresh one after a single Find of the last conflict. Exported for the
// random-grammar test in the external test package.
func CheckSharedPaths(tbl *lr.Table) error {
	if len(tbl.Conflicts) == 0 {
		return nil
	}
	opts := Options{
		PerConflictTimeout: NoTimeout,
		CumulativeTimeout:  NoTimeout,
		MaxConfigs:         1,
		Parallelism:        2,
	}
	all := NewFinder(tbl, opts)
	if _, err := all.FindAll(); err != nil {
		return fmt.Errorf("FindAll: %w", err)
	}
	one := NewFinder(tbl, opts)
	if _, err := one.Find(tbl.Conflicts[len(tbl.Conflicts)-1]); err != nil {
		return fmt.Errorf("Find: %w", err)
	}
	g := all.g
	for i, c := range tbl.Conflicts {
		n, ok := g.lookup(c.State, c.Item1)
		if !ok {
			return fmt.Errorf("conflict %d: reduce item not in state %d", i, c.State)
		}
		want, err := oracleShortestPath(g, n, c.Sym)
		if err != nil {
			want = nil
		}
		for _, f := range []struct {
			name string
			f    *Finder
		}{{"FindAll", all}, {"Find", one}} {
			paths, err := f.f.conflictPaths(context.Background())
			if err != nil {
				return err
			}
			got, ok := paths[laspTarget{n, c.Sym}]
			if !ok {
				return fmt.Errorf("%s: conflict %d (state %d) missing from the path map", f.name, i, c.State)
			}
			if d := diffPaths(g, got, want); d != "" {
				return fmt.Errorf("%s: conflict %d (state %d, %s): %s",
					f.name, i, c.State, tbl.A.G.Name(c.Sym), d)
			}
		}
	}
	return nil
}

// diffPaths describes the first difference between two paths' (Node, Sym)
// steps, or returns "" when they are equal. A nil path is an unreachable
// conflict.
func diffPaths(g *graph, got, want *laspPath) string {
	if got == nil || want == nil {
		if got != want {
			return fmt.Sprintf("shared path %v, oracle path %v", got != nil, want != nil)
		}
		return ""
	}
	if len(got.steps) != len(want.steps) {
		return fmt.Sprintf("shared path has %d steps, oracle %d", len(got.steps), len(want.steps))
	}
	for k := range got.steps {
		if got.steps[k] != want.steps[k] {
			return fmt.Sprintf("step %d: shared (%s, sym %d), oracle (%s, sym %d)", k,
				g.a.ItemString(g.itemOf(got.steps[k].Node)), got.steps[k].Sym,
				g.a.ItemString(g.itemOf(want.steps[k].Node)), want.steps[k].Sym)
		}
	}
	return ""
}

// TestSharedPathsMatchOracle: on every corpus grammar, each conflict's path
// from the one per-grammar search equals the path its own per-conflict search
// finds. Java.2 (588 conflicts, ~16M oracle vertices) is skipped under -short.
func TestSharedPathsMatchOracle(t *testing.T) {
	for _, name := range corpus.Names() {
		if name == "Java.2" && testing.Short() {
			continue
		}
		e, _ := corpus.Get(name)
		gr, err := gdl.Parse(e.Name, e.Source)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		if err := CheckSharedPaths(lr.BuildTable(lr.Build(gr))); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestFindOutsideTableRunsOneTarget: a conflict missing from the Finder's
// table is not in the shared path map, so Find runs the path search for it
// alone, counts those pops in the Example's own stats, and reaches the same
// answer as a Finder whose table lists the conflict.
func TestFindOutsideTableRunsOneTarget(t *testing.T) {
	e, _ := corpus.Get("C.4")
	gr, err := gdl.Parse(e.Name, e.Source)
	if err != nil {
		t.Fatal(err)
	}
	tbl := lr.BuildTable(lr.Build(gr))
	opts := Options{PerConflictTimeout: NoTimeout, CumulativeTimeout: NoTimeout, MaxConfigs: 1}
	c := tbl.Conflicts[len(tbl.Conflicts)-1]
	want, err := NewFinder(tbl, opts).Find(c)
	if err != nil {
		t.Fatal(err)
	}

	partial := *tbl
	partial.Conflicts = tbl.Conflicts[:1]
	f := NewFinder(&partial, opts)
	got, err := f.Find(c)
	if err != nil {
		t.Fatal(err)
	}
	nm := NewNameNormalizer(gr)
	if g, w := got.Canonical(tbl.A, nm), want.Canonical(tbl.A, nm); g != w {
		t.Errorf("outside-table example differs:\n%s\nvs\n%s", g, w)
	}
	if got.Stats.PathExpanded <= want.Stats.PathExpanded {
		t.Errorf("outside-table PathExpanded %d, in-table %d: the one-target search was not counted",
			got.Stats.PathExpanded, want.Stats.PathExpanded)
	}
	if len(f.paths) != 1 {
		t.Errorf("path map has %d entries, want only the one table conflict's", len(f.paths))
	}
}
