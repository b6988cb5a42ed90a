package core

import (
	"context"
	"fmt"

	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// DescribePath renders the shortest lookahead-sensitive path to a conflict's
// reduce item as the paper's Figure 5(a) does: one line per vertex
// (state, item, precise lookahead set), with the edge label on the left.
func DescribePath(tbl *lr.Table, c lr.Conflict) ([]string, error) {
	g := newGraph(tbl.A)
	conflictNode, ok := g.lookup(c.State, c.Item1)
	if !ok {
		return nil, fmt.Errorf("core: conflict reduce item not in state %d", c.State)
	}
	target := laspTarget{conflictNode, c.Sym}
	paths, _, err := lookaheadSensitivePaths(context.Background(), g, []laspTarget{target})
	if err != nil {
		return nil, err
	}
	path := paths[target]
	if path == nil {
		return nil, errUnreachableConflict
	}

	a := tbl.A
	gr := a.G
	var out []string
	for i, st := range path.steps {
		label := ""
		if i > 0 {
			if st.Sym == grammar.NoSym {
				label = "[prod] "
			} else {
				label = gr.Name(st.Sym) + " "
			}
		}
		out = append(out, fmt.Sprintf("%s(%d, %s, %s)", label,
			g.stateOf(st.Node), a.ItemString(g.itemOf(st.Node)), describeLA(g, path, i)))
	}
	return out, nil
}

// describeLA recomputes the precise lookahead set at step i of the path by
// replaying followL from the start vertex.
func describeLA(g *graph, p *laspPath, i int) string {
	a := g.a
	gr := a.G
	la := grammar.NewTermSet(gr.NumTerminals())
	la.Add(gr.TermIndex(grammar.EOF))
	for j := 1; j <= i; j++ {
		st := p.steps[j]
		if st.Sym == grammar.NoSym {
			prev := p.steps[j-1].Node
			it := g.itemOf(prev)
			la = gr.FollowL(a.Prod(it), a.Dot(it), la)
		}
	}
	return la.Format(gr)
}
