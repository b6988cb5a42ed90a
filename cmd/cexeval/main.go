// Command cexeval regenerates the paper's evaluation: Table 1 over the full
// grammar corpus, the figure walkthroughs, and the effectiveness, efficiency,
// and scalability summaries of Section 7.
//
// Usage:
//
//	cexeval -table1 [-baseline]        # Table 1 (paper's main table)
//	cexeval -grammar SQL.2             # one row, with full reports
//	cexeval -category bv10             # one Table 1 section
//	cexeval -fig5                      # Figure 5: dangling-else paths
//	cexeval -fig9                      # Figure 9: the challenging conflict
//	cexeval -fig11                     # Figure 11: sample error message
//	cexeval -effectiveness             # Section 7.2 summary + PPG comparison
//	cexeval -efficiency                # Section 7.3: vs the bounded detector
//	cexeval -scalability               # Section 7.4: time vs grammar size
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"lrcex"
	"lrcex/internal/baseline"
	"lrcex/internal/cliflags"
	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/eval"
	"lrcex/internal/faults"
	"lrcex/internal/repair"
)

// showStats mirrors the -stats flag for the table printers.
var showStats bool

// searchFlags holds the parsed shared flag surface; runOne consults its
// repair fields.
var searchFlags *cliflags.Search

func main() {
	var (
		table1        = flag.Bool("table1", false, "regenerate Table 1")
		withBaseline  = flag.Bool("baseline", false, "also run the bounded ambiguity detector (slow)")
		category      = flag.String("category", "", "restrict to one category: ours, stackoverflow, bv10")
		grammarName   = flag.String("grammar", "", "measure one grammar and print its counterexample reports")
		fig5          = flag.Bool("fig5", false, "print the Figure 5 lookahead-sensitive path")
		fig9          = flag.Bool("fig9", false, "print the Figure 9 challenging-conflict result")
		fig11         = flag.Bool("fig11", false, "print the Figure 11 sample error message")
		effectiveness = flag.Bool("effectiveness", false, "Section 7.2 summary")
		efficiency    = flag.Bool("efficiency", false, "Section 7.3 comparison")
		scalability   = flag.Bool("scalability", false, "Section 7.4 summary")
	)
	// The search-tuning and instrumentation surface (-timeout, -cumulative,
	// -notimeout, -j, -extendedsearch, -maxconfigs, -maxarena, -stats,
	// -trace-out, -cpuprofile, -memprofile, ...) is shared with cexgen via
	// internal/cliflags so the two tools stay uniform.
	search := cliflags.RegisterSearch(flag.CommandLine)
	flag.Parse()
	showStats = search.Stats
	searchFlags = search

	if err := faults.EnableSpec(search.Faults); err != nil {
		fmt.Fprintln(os.Stderr, "cexeval:", err)
		os.Exit(1)
	}

	stopProf, err := search.StartProfiles()
	if err != nil {
		fmt.Fprintln(os.Stderr, "cexeval:", err)
		os.Exit(1)
	}
	defer stopProf()

	// -trace-out: one trace for the whole evaluation run; each measured
	// grammar becomes a span subtree (see eval.MeasureContext).
	label := "cexeval"
	if *grammarName != "" {
		label = *grammarName
	} else if *category != "" {
		label = *category
	}
	ctx, finishTrace := search.StartTrace(context.Background(), label)

	opts := eval.Options{
		Finder:       search.FinderOptions(),
		Baseline:     *withBaseline,
		BaselineOpts: baseline.AmberOptions{MaxLen: 10, Timeout: 30 * time.Second},
	}

	switch {
	case *grammarName != "":
		runOne(ctx, *grammarName, opts)
	case *fig5:
		runFig5()
	case *fig9:
		runFig9(opts)
	case *fig11:
		runFig11(opts)
	case *effectiveness:
		runEffectiveness(ctx, opts)
	case *efficiency:
		runEfficiency(ctx, opts)
	case *scalability:
		runScalability(ctx, opts)
	case *table1 || *category != "":
		runTable1(ctx, *category, opts)
	default:
		flag.Usage()
		os.Exit(2)
	}

	if err := finishTrace(); err != nil {
		fmt.Fprintln(os.Stderr, "cexeval: trace:", err)
		os.Exit(1)
	}
}

func entriesFor(category string) []*corpus.Entry {
	switch category {
	case "":
		return corpus.All()
	case "ours":
		return corpus.ByCategory(corpus.Ours)
	case "stackoverflow":
		return corpus.ByCategory(corpus.StackOverflow)
	case "bv10":
		return corpus.ByCategory(corpus.BV10)
	default:
		fmt.Fprintf(os.Stderr, "cexeval: unknown category %q\n", category)
		os.Exit(2)
		return nil
	}
}

func runTable1(ctx context.Context, category string, opts eval.Options) {
	rows := eval.Table1Context(ctx, entriesFor(category), opts)
	fmt.Print(eval.FormatRows(rows, opts.Baseline))
	if showStats {
		printStats(rows)
	}
}

// printStats prints the per-grammar search statistics plus a totals line
// (cexeval -stats): the frontier and dedup traffic of the unifying search and
// the arena footprint of the zero-copy search core.
func printStats(rows []eval.Row) {
	fmt.Println("\nSearch statistics:")
	var total core.SearchStats
	var parse, build, search time.Duration
	for _, r := range rows {
		if r.Err != nil {
			continue
		}
		fmt.Printf("  %-12s %s\n", r.Name, r.Stats)
		total.Add(r.Stats)
		parse += r.ParseWall
		build += r.BuildWall
		search += r.Wall
	}
	fmt.Printf("  %-12s %s\n", "TOTAL", total)
	fmt.Printf("  phase times: parse %v, build %v, search %v\n",
		parse.Round(time.Millisecond), build.Round(time.Millisecond), search.Round(time.Millisecond))
}

func runOne(ctx context.Context, name string, opts eval.Options) {
	e, ok := corpus.Get(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "cexeval: unknown grammar %q\n", name)
		os.Exit(2)
	}
	row := eval.MeasureContext(ctx, e, opts)
	fmt.Print(eval.FormatRows([]eval.Row{row}, opts.Baseline))
	if row.Err != nil {
		os.Exit(1)
	}
	if showStats {
		fmt.Printf("\nsearch stats: %s\n", row.Stats)
	}
	tbl := row.Compiled.Table()
	for _, ex := range row.Examples {
		fmt.Println()
		fmt.Print(ex.Report(tbl.A))
	}

	// -repair: run the conflict-repair advisor on the measured grammar,
	// reusing the row's counterexamples as synthesis seeds and replay probes.
	if searchFlags.Repair {
		rep, err := repair.Advise(context.Background(), repair.Input{
			Name:     e.Name,
			Grammar:  tbl.A.G,
			Compiled: row.Compiled,
			Examples: row.Examples,
		}, searchFlags.RepairOptions())
		if err != nil {
			fmt.Fprintln(os.Stderr, "cexeval: repair:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(rep.Render())
	}
}

func mustFigure1() (*lrcex.Grammar, *lrcex.Result) {
	e, _ := corpus.Get("figure1")
	g, err := lrcex.ParseGrammar(e.Name, e.Source)
	if err != nil {
		panic(err)
	}
	return g, lrcex.Analyze(g)
}

func findConflict(g *lrcex.Grammar, res *lrcex.Result, sym string) lrcex.Conflict {
	for _, c := range res.Conflicts() {
		if g.Name(c.Sym) == sym {
			return c
		}
	}
	fmt.Fprintf(os.Stderr, "cexeval: no conflict under %q in figure1\n", sym)
	os.Exit(1)
	return lrcex.Conflict{}
}

func runFig5() {
	g, res := mustFigure1()
	c := findConflict(g, res, "else")
	lines, err := core.DescribePath(res.Table, c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cexeval:", err)
		os.Exit(1)
	}
	fmt.Println("Figure 5(a): shortest lookahead-sensitive path to the dangling-else reduce item")
	for _, l := range lines {
		fmt.Println("  " + l)
	}
}

func runFig9(opts eval.Options) {
	g, res := mustFigure1()
	c := findConflict(g, res, "digit")
	ex, err := res.Find(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cexeval:", err)
		os.Exit(1)
	}
	fmt.Println("Figure 9: the challenging conflict of Section 3.1")
	fmt.Printf("  configurations expanded: %d\n", ex.Expanded)
	if showStats {
		fmt.Printf("  search stats: %s\n", ex.Stats)
	}
	fmt.Println()
	fmt.Print(ex.Report(res.Automaton))
	_ = opts
}

func runFig11(opts eval.Options) {
	g, res := mustFigure1()
	c := findConflict(g, res, "+")
	ex, err := res.Find(c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cexeval:", err)
		os.Exit(1)
	}
	fmt.Print(ex.Report(res.Automaton))
	_ = opts
}

// runEffectiveness prints the Section 7.2 numbers: the fraction of conflicts
// answered within the time limit, and the grammars on which the prior-PPG
// construction is misleading.
func runEffectiveness(ctx context.Context, opts eval.Options) {
	rows := eval.Table1Context(ctx, corpus.All(), opts)
	total, answered, skipped := 0, 0, 0
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "cexeval: %s: %v\n", r.Name, r.Err)
			continue
		}
		total += r.Conflicts
		answered += r.Unif + r.Nonunif
		skipped += r.Skipped
	}
	attempted := total - skipped
	fmt.Printf("Conflicts answered within the per-conflict time limit: %d/%d (%.0f%%)\n",
		answered, attempted, 100*float64(answered)/float64(attempted))
	fmt.Printf("(%d more conflicts were beyond the cumulative budget and received\n"+
		"nonunifying counterexamples directly, like Table 1's parenthesized counts.\n"+
		"The paper reports 92%% on its corpus.)\n\n", skipped)

	fmt.Println("Grammars where the lookahead-ignoring (prior PPG/CUP2) construction is invalid:")
	misled := 0
	for _, e := range corpus.All() {
		_, tbl, err := eval.Build(e)
		if err != nil {
			continue
		}
		bad := 0
		for _, c := range tbl.Conflicts {
			if ex := baseline.Naive(tbl, c); !ex.Valid {
				bad++
			}
		}
		if bad > 0 {
			misled++
			fmt.Printf("  %-12s %d/%d conflicts misdescribed\n", e.Name, bad, len(tbl.Conflicts))
		}
	}
	fmt.Printf("Total: %d grammars (the paper reports 10 on its corpus)\n", misled)
}

// runEfficiency prints the Section 7.3 comparison: our average time per
// conflict vs the bounded exhaustive detector's time to find one ambiguity.
func runEfficiency(ctx context.Context, opts eval.Options) {
	opts.Baseline = true
	rows := eval.Table1Context(ctx, entriesFor("bv10"), opts)
	fmt.Print(eval.FormatRows(rows, true))
	var ratios []float64
	for _, r := range rows {
		if r.Err != nil || r.Avg == 0 || r.BaselineTime == 0 {
			continue
		}
		ratios = append(ratios, float64(r.BaselineTime)/float64(r.Avg))
	}
	if len(ratios) > 0 {
		logSum := 0.0
		for _, x := range ratios {
			logSum += math.Log(x)
		}
		fmt.Printf("\nGeometric-mean speedup over the bounded detector: %.1fx (paper: 10.7x vs CFGAnalyzer)\n",
			math.Exp(logSum/float64(len(ratios))))
	}
}

// runScalability prints per-conflict time against grammar size (Section 7.4:
// running time grows only marginally on larger grammars).
func runScalability(ctx context.Context, opts eval.Options) {
	rows := eval.Table1Context(ctx, corpus.All(), opts)
	sort.Slice(rows, func(i, j int) bool { return rows[i].States < rows[j].States })
	fmt.Printf("%-12s %8s %12s\n", "Grammar", "#states", "avg/conflict")
	for _, r := range rows {
		if r.Err != nil || r.Avg == 0 {
			continue
		}
		fmt.Printf("%-12s %8d %11.3fs\n", r.Name, r.States, r.Avg.Seconds())
	}
}
