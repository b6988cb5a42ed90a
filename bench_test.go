package lrcex

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (Section 7) plus the ablations called out in DESIGN.md:
//
//	BenchmarkFigure2Automaton    Figure 1/2: LALR construction of the running example
//	BenchmarkFigure5Path         Figure 5: shortest lookahead-sensitive path
//	BenchmarkFigure9Challenging  Figure 9: the four-stage outward search
//	BenchmarkFigure11Message     Figure 11: error-message generation
//	BenchmarkTable1              Table 1: per-grammar counterexample search
//	BenchmarkEffectiveness       Section 7.2: prior-PPG validity checking
//	BenchmarkEfficiency          Section 7.3: ours vs the bounded detector
//	BenchmarkScalability         Section 7.4: growth with grammar size
//	BenchmarkAblation*           design-choice ablations
//
// Wall-clock numbers belong to EXPERIMENTS.md; these benches are the
// reproducible way to regenerate them.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"lrcex/internal/baseline"
	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

func mustTable(b *testing.B, name string) *lr.Table {
	b.Helper()
	e, ok := corpus.Get(name)
	if !ok {
		b.Fatalf("grammar %q not in corpus", name)
	}
	g, err := gdl.Parse(name, e.Source)
	if err != nil {
		b.Fatal(err)
	}
	return lr.BuildTable(lr.Build(g))
}

func conflictUnder(b *testing.B, tbl *lr.Table, sym string) lr.Conflict {
	b.Helper()
	for _, c := range tbl.Conflicts {
		if tbl.A.G.Name(c.Sym) == sym {
			return c
		}
	}
	b.Fatalf("no conflict under %q", sym)
	return lr.Conflict{}
}

// benchOpts keeps a single bench iteration bounded on slow conflicts.
func benchOpts() core.Options {
	return core.Options{
		PerConflictTimeout: 200 * time.Millisecond,
		CumulativeTimeout:  2 * time.Second,
	}
}

// BenchmarkFigure2Automaton measures the LALR(1) construction of the
// Figure 1 grammar (states of Figure 2).
func BenchmarkFigure2Automaton(b *testing.B) {
	e, _ := corpus.Get("figure1")
	g, err := gdl.Parse("figure1", e.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl := lr.BuildTable(lr.Build(g))
		if len(tbl.Conflicts) != 3 {
			b.Fatal("unexpected conflict count")
		}
	}
}

// BenchmarkFigure5Path measures the shortest lookahead-sensitive path search
// for the dangling-else conflict.
func BenchmarkFigure5Path(b *testing.B) {
	tbl := mustTable(b, "figure1")
	c := conflictUnder(b, tbl, "else")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.DescribePath(tbl, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure9Challenging measures the full outward search on the
// Section 3.1 conflict (Figure 9's four stages).
func BenchmarkFigure9Challenging(b *testing.B) {
	tbl := mustTable(b, "figure1")
	c := conflictUnder(b, tbl, "digit")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := core.NewFinder(tbl, core.Options{})
		ex, err := f.Find(c)
		if err != nil || ex.Kind != core.Unifying {
			b.Fatalf("expected unifying result, got %v (%v)", ex.Kind, err)
		}
	}
}

// BenchmarkFigure11Message measures end-to-end counterexample + report
// generation for the Figure 11 conflict.
func BenchmarkFigure11Message(b *testing.B) {
	tbl := mustTable(b, "figure1")
	c := conflictUnder(b, tbl, "+")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := core.NewFinder(tbl, core.Options{})
		ex, err := f.Find(c)
		if err != nil {
			b.Fatal(err)
		}
		if len(ex.Report(tbl.A)) == 0 {
			b.Fatal("empty report")
		}
	}
}

// BenchmarkTable1 regenerates Table 1 one grammar per sub-benchmark: each
// iteration finds a counterexample for every conflict of the grammar.
func BenchmarkTable1(b *testing.B) {
	for _, name := range corpus.Names() {
		b.Run(name, func(b *testing.B) {
			tbl := mustTable(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := core.NewFinder(tbl, benchOpts())
				if _, err := f.FindAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// parallelBenchGrammars is the corpus slice used by BenchmarkTable1Parallel.
// The set is chosen to be *bimodal*: every conflict either resolves in well
// under the per-conflict limit (deterministic search, identical results at
// any worker count) or is hopeless far beyond it (times out at any worker
// count — java-ext2's seven unbounded conflicts persist past a 2 s budget).
// Grammars with conflicts near the limit (C.4, Java.4, SQL.4, Pascal.2) are
// excluded: their outcomes legitimately depend on how much CPU the conflict
// receives before its wall-clock deadline, which is the one thing
// parallelism changes.
var parallelBenchGrammars = []string{
	"figure1", "xi", "stackovf10", "SQL.2", "C.1", "Java.5", "java-ext2",
}

func parallelBenchOpts(workers int) core.Options {
	return core.Options{
		PerConflictTimeout: 300 * time.Millisecond,
		CumulativeTimeout:  core.NoTimeout,
		Parallelism:        workers,
	}
}

// exampleFingerprint captures everything the acceptance bar compares across
// worker counts: the outcome kind plus the full counterexample content
// (unifying derivations or nonunifying prefix/continuations).
func exampleFingerprint(g *grammar.Grammar, ex *core.Example) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%v|%s|%d", ex.Kind, g.SymString(ex.Syms), ex.Dot)
	if ex.Deriv1 != nil {
		sb.WriteByte('|')
		sb.WriteString(ex.Deriv1.Format(g, ex.Dot))
		sb.WriteByte('|')
		sb.WriteString(ex.Deriv2.Format(g, ex.Dot))
	}
	fmt.Fprintf(&sb, "|%s|%s|%s", g.SymString(ex.Prefix), g.SymString(ex.After1), g.SymString(ex.After2))
	return sb.String()
}

// BenchmarkTable1Parallel measures the parallel conflict loop at 1/2/4/8
// workers over the bimodal corpus slice. The first iteration of every
// parallel sub-benchmark also asserts that per-conflict results (kind and
// derivations) are identical to sequential mode.
//
// What the speedup means depends on the hardware: on a multi-core machine
// the workers genuinely overlap CPU-bound searches; on a single-core
// machine (like a throttled CI container) the speedup comes from
// overlapping the *wall-clock deadline waits* of hopeless conflicts — seven
// java-ext2 conflicts that each burn a full 300 ms budget cost ~2.1 s
// sequentially but ~one budget per worker-wave in parallel. Both effects
// are exactly what Section 6's per-conflict budget model predicts.
func BenchmarkTable1Parallel(b *testing.B) {
	grammars := make(map[string]*grammar.Grammar, len(parallelBenchGrammars))
	tables := make(map[string]*lr.Table, len(parallelBenchGrammars))
	ref := make(map[string][]string, len(parallelBenchGrammars))
	for _, name := range parallelBenchGrammars {
		e, ok := corpus.Get(name)
		if !ok {
			b.Fatalf("grammar %q not in corpus", name)
		}
		g, err := gdl.Parse(name, e.Source)
		if err != nil {
			b.Fatal(err)
		}
		grammars[name] = g
		tables[name] = lr.BuildTable(lr.Build(g))
		f := core.NewFinder(tables[name], parallelBenchOpts(1))
		exs, err := f.FindAll()
		if err != nil {
			b.Fatal(err)
		}
		fps := make([]string, len(exs))
		for i, ex := range exs {
			fps[i] = exampleFingerprint(g, ex)
		}
		ref[name] = fps
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, name := range parallelBenchGrammars {
					f := core.NewFinder(tables[name], parallelBenchOpts(workers))
					exs, err := f.FindAll()
					if err != nil {
						b.Fatal(err)
					}
					if i > 0 {
						continue
					}
					g := grammars[name]
					if len(exs) != len(ref[name]) {
						b.Fatalf("%s: %d examples, sequential found %d", name, len(exs), len(ref[name]))
					}
					for k, ex := range exs {
						if got := exampleFingerprint(g, ex); got != ref[name][k] {
							b.Fatalf("%s conflict %d: parallel result diverged from sequential\n got: %s\nwant: %s",
								name, k, got, ref[name][k])
						}
					}
				}
			}
		})
	}
}

// longPoleGrammars are the slowest Table-1 rows — the grammars whose few
// expensive conflicts dominate a corpus sweep.
var longPoleGrammars = []string{"Java.2", "Java.4", "C.4", "java-ext2"}

// BenchmarkLongPole measures the shipped search — sequential, default
// frontier — on the long-pole grammars under a deterministic budget (no wall
// clock, a fixed configuration cap), so every iteration does the same work.
func BenchmarkLongPole(b *testing.B) {
	opts := core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         10000,
		Parallelism:        1,
	}
	for _, name := range longPoleGrammars {
		tbl := mustTable(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.NewFinder(tbl, opts).FindAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// unifyAllocsOpts are the deterministic budgets used by the allocation
// benchmark and its regression guard: no wall clock, sequential, and a
// configuration cap comfortably above what the dangling-else conflict needs.
func unifyAllocsOpts() core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         200000,
		Parallelism:        1,
	}
}

// BenchmarkUnifyAllocs measures the allocation profile of the unifying search
// on the classic dangling-else conflict (figure1 under 'else'). The finder —
// and with it the graph tables — is built once outside the loop, so B/op and
// allocs/op measure the per-conflict search alone: configurations, item
// sequences, derivations, frontier, and dedup table.
//
// Slice-copy baseline (seed implementation, recorded before the zero-copy
// rewrite, on the reference machine): 705 allocs/op, 58840 B/op, ~73 µs/op.
// The persistent cons-deque + hashed dedup + bucket frontier implementation
// must stay ≥ 5× below that allocation baseline; TestUnifyAllocsRegression
// enforces the bound.
func BenchmarkUnifyAllocs(b *testing.B) {
	tbl := mustTable(b, "figure1")
	c := conflictUnder(b, tbl, "else")
	f := core.NewFinder(tbl, unifyAllocsOpts())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ex, err := f.Find(c)
		if err != nil || ex.Kind != core.Unifying {
			b.Fatalf("expected unifying result, got %v (%v)", ex.Kind, err)
		}
	}
}

// BenchmarkEffectiveness measures the Section 7.2 comparison machinery: the
// naive prior-PPG construction plus its lookahead validation, across the
// small-grammar corpus.
func BenchmarkEffectiveness(b *testing.B) {
	var tables []*lr.Table
	for _, e := range corpus.ByCategory(corpus.StackOverflow) {
		tables = append(tables, mustTable(b, e.Name))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tbl := range tables {
			for _, c := range tbl.Conflicts {
				baseline.Naive(tbl, c)
			}
		}
	}
}

// BenchmarkEfficiency compares our per-conflict search against the bounded
// exhaustive detector on a BV10 grammar, the Section 7.3 contrast.
func BenchmarkEfficiency(b *testing.B) {
	e, _ := corpus.Get("SQL.2")
	g, err := gdl.Parse(e.Name, e.Source)
	if err != nil {
		b.Fatal(err)
	}
	tbl := lr.BuildTable(lr.Build(g))
	b.Run("counterexamples", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f := core.NewFinder(tbl, benchOpts())
			if _, err := f.FindAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bounded-detector", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := baseline.DetectAmbiguity(g, baseline.AmberOptions{MaxLen: 8, Timeout: 20 * time.Second})
			if !res.Ambiguous {
				b.Fatal("baseline failed to find the ambiguity")
			}
		}
	})
}

// BenchmarkScalability runs the finder on grammars of increasing size
// (Section 7.4: growth should be marginal relative to state count).
func BenchmarkScalability(b *testing.B) {
	for _, name := range []string{"figure1", "xi", "SQL.2", "Pascal.3", "C.1", "Java.3"} {
		b.Run(name, func(b *testing.B) {
			tbl := mustTable(b, name)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f := core.NewFinder(tbl, benchOpts())
				if _, err := f.FindAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationRestriction contrasts the default shortest-path
// restriction with -extendedsearch on Figure 7 (whose second conflict is the
// paper's motivating case for searching near, but not only on, the path).
func BenchmarkAblationRestriction(b *testing.B) {
	tbl := mustTable(b, "figure7")
	for _, mode := range []struct {
		name     string
		extended bool
	}{{"restricted", false}, {"extended", true}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := core.NewFinder(tbl, core.Options{ExtendedSearch: mode.extended})
				exs, err := f.FindAll()
				if err != nil {
					b.Fatal(err)
				}
				for _, ex := range exs {
					if ex.Kind != core.Unifying {
						b.Fatalf("expected unifying, got %v", ex.Kind)
					}
				}
			}
		})
	}
}

// BenchmarkAblationProdStepCost varies the production-step cost, the main
// knob of the Section 5.4 cost ordering.
func BenchmarkAblationProdStepCost(b *testing.B) {
	tbl := mustTable(b, "figure1")
	c := conflictUnder(b, tbl, "digit")
	for _, cost := range []int{1, 5, 10, 50} {
		b.Run(itoa(cost), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := core.NewFinder(tbl, core.Options{Costs: core.CostModel{ProdStep: cost, RevProdStep: cost}})
				ex, err := f.Find(c)
				if err != nil || ex.Kind != core.Unifying {
					b.Fatalf("expected unifying, got %v (%v)", ex.Kind, err)
				}
			}
		})
	}
}

// BenchmarkAblationOccurrenceCap varies the per-side item-occurrence cap
// that makes the restricted search space finite (see CostModel).
func BenchmarkAblationOccurrenceCap(b *testing.B) {
	tbl := mustTable(b, "figure3") // unambiguous: measures exhaustion speed
	for _, cap := range []int{2, 4, 8} {
		b.Run(itoa(cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				f := core.NewFinder(tbl, core.Options{Costs: core.CostModel{MaxItemOccurrences: cap}})
				if _, err := f.FindAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
