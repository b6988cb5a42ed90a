package lr_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"lrcex/internal/corpus"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// canonicalLookaheads is the lookahead oracle: for every LALR state and item,
// the union of the item's lookaheads over the canonical LR(1) states reached
// by the same viable prefixes — the LR(1) states that share the state's LR(0)
// core. LALR(1) is by definition that merge, so the canonical construction
// (BuildLR1, which computes its own closures with Grammar.FollowL) checks the
// LALR computation independently of it. The pairs are found by walking both
// machines in step from their start states rather than by comparing kernels:
// the canonical machine omits items whose lookahead set is empty (they occur
// in grammars with unproductive nonterminals), so its kernels may be subsets
// of the LR(0) ones. It returns nil when the canonical machine exceeds
// maxStates.
func canonicalLookaheads(a *lr.Automaton, maxStates int) [][]grammar.TermSet {
	m := lr.BuildLR1(a, maxStates)
	if m == nil {
		return nil
	}
	want := make([][]grammar.TermSet, len(a.States))
	for s, st := range a.States {
		want[s] = grammar.NewTermSets(len(st.Items), a.G.NumTerminals())
	}
	type pair struct{ lr1, lalr int }
	seen := map[pair]bool{{0, 0}: true}
	work := []pair{{0, 0}}
	for len(work) > 0 {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		st1, st := m.States[p.lr1], a.States[p.lalr]
		for _, it := range st1.Items {
			idx, ok := st.HasItem(it.Item)
			if !ok {
				panic(fmt.Sprintf("LR(1) state %d has %s, which LALR state %d lacks",
					st1.ID, a.ItemString(it.Item), st.ID))
			}
			want[st.ID][idx].Add(int(it.La))
		}
		for x, t1 := range st1.Trans {
			q := pair{t1, a.Goto(st.ID, x)}
			if !seen[q] {
				seen[q] = true
				work = append(work, q)
			}
		}
	}
	return want
}

// checkAgainstCanonical fails t at the first (state, item) whose LALR
// lookahead differs from the canonical merge. It reports whether the
// canonical machine fit within maxStates.
//
// With exact false it checks only that the LALR lookahead contains the
// canonical merge. That is all that holds when the grammar has an
// unproductive nonterminal: an item whose canonical lookahead is empty does
// not exist in the canonical machine, but it does exist in the LR(0) state,
// and there its closure still generates FIRST sets — so LALR lookaheads may
// strictly exceed the merge.
func checkAgainstCanonical(t *testing.T, name string, a *lr.Automaton, maxStates int, exact bool) bool {
	t.Helper()
	want := canonicalLookaheads(a, maxStates)
	if want == nil {
		return false
	}
	for s, st := range a.States {
		for idx, it := range st.Items {
			got, w := st.Lookahead[idx], want[s][idx]
			if exact && !got.Equal(w) || !w.Intersection(got).Equal(w) {
				t.Fatalf("%s state %d %s: LALR lookahead %s, canonical merge %s",
					name, s, a.ItemString(it), got.Format(a.G), w.Format(a.G))
			}
			if la, ok := a.LookaheadOf(s, it); !ok || !la.Equal(got) {
				t.Fatalf("%s state %d %s: LookaheadOf disagrees with Lookahead[%d]",
					name, s, a.ItemString(it), idx)
			}
		}
	}
	return true
}

// slowCanonical lists the corpus grammars whose canonical LR(1) machine
// takes about a second or more to build; they run only without -short.
var slowCanonical = map[string]bool{
	"C.1": true, "C.2": true, "C.3": true, "C.4": true, "C.5": true,
	"Java.1": true, "Java.2": true, "Java.3": true, "Java.4": true, "Java.5": true,
	"java-ext1": true, "java-ext2": true,
}

// TestLookaheadsMatchCanonicalCorpus runs the lookahead oracle on every
// corpus grammar whose canonical machine fits the default BuildLR1 bound.
func TestLookaheadsMatchCanonicalCorpus(t *testing.T) {
	for _, e := range corpus.All() {
		t.Run(e.Name, func(t *testing.T) {
			if testing.Short() && slowCanonical[e.Name] {
				t.Skip("canonical LR(1) construction is slow on this grammar")
			}
			if !checkAgainstCanonical(t, e.Name, lr.Build(e.Grammar()), 0, true) {
				t.Skip("canonical machine exceeds the BuildLR1 bound")
			}
		})
	}
}

// randomLookaheadGrammar builds a random grammar of 2–5 nonterminals over 4
// terminals. Productions have 0–4 symbols, so empty productions, nullable
// suffixes and nullable cycles — the cases where lookaheads propagate
// through a closure rather than being generated — are frequent.
func randomLookaheadGrammar(r *rand.Rand) *grammar.Grammar {
	b := grammar.NewBuilder()
	nts := make([]grammar.Sym, 2+r.Intn(4))
	for i := range nts {
		nts[i] = b.Nonterminal(fmt.Sprintf("n%d", i))
	}
	terms := []grammar.Sym{b.Terminal("w"), b.Terminal("x"), b.Terminal("y"), b.Terminal("z")}
	b.SetStart(nts[0])
	for _, nt := range nts {
		for k := 0; k < 1+r.Intn(3); k++ {
			rhs := make([]grammar.Sym, r.Intn(5))
			for i := range rhs {
				if r.Intn(2) == 0 {
					rhs[i] = nts[r.Intn(len(nts))]
				} else {
					rhs[i] = terms[r.Intn(len(terms))]
				}
			}
			b.Add(nt, rhs, grammar.NoSym)
		}
	}
	g, err := b.Build()
	if err != nil {
		return nil
	}
	return g
}

// TestLookaheadsMatchCanonicalRandom runs the lookahead oracle on 400 seeded
// random grammars: exactly on those whose nonterminals are all productive
// (at least 200 of them), as a containment check on the rest.
func TestLookaheadsMatchCanonicalRandom(t *testing.T) {
	r := rand.New(rand.NewSource(20261018))
	exact, checked := 0, 0
	for i := 0; i < 400; i++ {
		g := randomLookaheadGrammar(r)
		if g == nil {
			continue
		}
		productive, minLen := true, g.MinTerminalExpansion()
		for _, nt := range g.Nonterminals() {
			if minLen[nt] < 0 {
				productive = false
			}
		}
		name := fmt.Sprintf("random #%d\n%s", i, g)
		if checkAgainstCanonical(t, name, lr.Build(g), 20000, productive) {
			checked++
			if productive {
				exact++
			}
		}
	}
	t.Logf("%d random grammars checked, %d exactly", checked, exact)
	if exact < 200 {
		t.Fatalf("only %d random grammars checked exactly, want at least 200", exact)
	}
}

// corpusLookaheadDigest pins every (grammar, state, item, lookahead) triple
// of the corpus. It was recorded from the textbook construction
// (spontaneous generation and propagation with a marker lookahead, then an
// in-state closure fixpoint), so any change to the LALR computation that
// moves a single lookahead terminal fails here.
const corpusLookaheadDigest = "9e6d6b5076e702e0d6edd10d99cb09ead67be591a8722b5d0acb9e88beb59290"

func TestCorpusLookaheadDigest(t *testing.T) {
	h := sha256.New()
	for _, e := range corpus.All() {
		a := lr.Build(e.Grammar())
		for _, st := range a.States {
			for idx, it := range st.Items {
				fmt.Fprintf(h, "%s %d %s %v\n", e.Name, st.ID, a.ItemString(it), st.Lookahead[idx].Elems())
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != corpusLookaheadDigest {
		t.Errorf("corpus lookahead digest = %s, want %s", got, corpusLookaheadDigest)
	}
}
