// Command cexgen reads a grammar file and reports every parsing conflict
// with a counterexample, in the style of the paper's Figure 11.
//
// Usage:
//
//	cexgen [flags] grammar.cfg
//	cexgen [flags] -corpus figure1
//
// Flags mirror the paper's implementation: a per-conflict time limit
// (default 5s), a cumulative limit (default 2m), and -extendedsearch to lift
// the shortest-path restriction on the unifying search.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"lrcex"
	"lrcex/internal/cliflags"
	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/faults"
	"lrcex/internal/profiling"
	"lrcex/internal/repair"
	"lrcex/internal/trace"
)

func main() {
	var (
		corpusName = flag.String("corpus", "", "analyze a built-in corpus grammar instead of a file")
		quiet      = flag.Bool("q", false, "print one summary line per conflict instead of full reports")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	// The search-tuning surface (-timeout, -cumulative, -notimeout, -j,
	// -extendedsearch, -maxconfigs, -maxarena, -stats) is shared with
	// cexeval via internal/cliflags so the two tools stay uniform.
	search := cliflags.RegisterSearch(flag.CommandLine)
	flag.Parse()

	if err := faults.EnableSpec(search.Faults); err != nil {
		fmt.Fprintln(os.Stderr, "cexgen:", err)
		os.Exit(1)
	}

	stopProf, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cexgen:", err)
		os.Exit(1)
	}
	defer stopProf()

	name, src, err := loadSource(*corpusName, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cexgen:", err)
		os.Exit(2)
	}

	// -trace-out: one trace for the whole run, spans for each phase. With the
	// flag unset StartTrace returns the context untouched and every span call
	// below is a single atomic load.
	ctx, finishTrace := search.StartTrace(context.Background(), name)

	parseStart := time.Now()
	psp := trace.Child(ctx, "gdl.parse")
	g, err := lrcex.ParseGrammar(name, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cexgen:", err)
		os.Exit(1)
	}
	psp.Set("productions", g.NumProductions())
	psp.End()
	parseWall := time.Since(parseStart)
	buildStart := time.Now()
	bsp := trace.Child(ctx, "table.build")
	res := lrcex.AnalyzeWithOptions(g, search.FinderOptions())
	bsp.Set("states", len(res.Automaton.States))
	bsp.End()
	buildWall := time.Since(buildStart)

	// Counterexamples assume a reduced grammar: warn like yacc/CUP when
	// nonterminals are unproductive or unreachable.
	minExp := g.MinTerminalExpansion()
	reach := g.Reachable()
	for _, n := range g.Nonterminals() {
		if minExp[n] < 0 {
			fmt.Fprintf(os.Stderr, "warning: nonterminal %s derives no terminal string\n", g.Name(n))
		}
		if !reach[n] {
			fmt.Fprintf(os.Stderr, "warning: nonterminal %s is unreachable from the start symbol\n", g.Name(n))
		}
	}

	fmt.Printf("%s: %d nonterminals, %d productions, %d states, %d conflicts",
		name, len(g.Nonterminals()), g.NumProductions(), len(res.Automaton.States), len(res.Conflicts()))
	if n := len(res.Table.Resolved); n > 0 {
		fmt.Printf(" (%d more resolved by precedence)", n)
	}
	fmt.Println()

	if len(res.Conflicts()) == 0 {
		fmt.Println("No conflicts: the grammar is LALR(1).")
		if err := finishTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "cexgen: trace: %v\n", err)
		}
		return
	}
	// FindAll searches the conflicts on a worker pool (-j) and returns the
	// results in conflict order, so the report order matches the sequential
	// tool exactly.
	searchStart := time.Now()
	sctx, ssp := trace.Start(ctx, "search")
	ssp.Set("conflicts", len(res.Conflicts()))
	exs, err := res.FindAllContext(sctx)
	ssp.End()
	searchWall := time.Since(searchStart)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cexgen: %v\n", err)
		os.Exit(1)
	}
	for _, ex := range exs {
		c := ex.Conflict
		if *quiet {
			fmt.Printf("state %d under %s: %s (%.3fs)\n", c.State, g.Name(c.Sym), ex.Kind, ex.Elapsed.Seconds())
			continue
		}
		fmt.Println()
		fmt.Print(ex.Report(res.Automaton))
	}
	if search.Stats {
		fmt.Printf("\nsearch stats: %s\n", res.SearchStats())
		fmt.Printf("phase times: parse %v, build %v, search %v\n",
			parseWall.Round(time.Millisecond), buildWall.Round(time.Millisecond), searchWall.Round(time.Millisecond))
	}

	// -repair: run the conflict-repair advisor over the analysis just
	// printed, reusing the compiled tables and the counterexamples as probes.
	if search.Repair {
		rep, err := repair.Advise(ctx, repair.Input{
			Name:     name,
			Grammar:  g,
			Compiled: core.Compile(res.Table),
			Examples: exs,
		}, search.RepairOptions())
		if err != nil {
			fmt.Fprintf(os.Stderr, "cexgen: repair: %v\n", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(rep.Render())
	}

	if err := finishTrace(); err != nil {
		fmt.Fprintf(os.Stderr, "cexgen: trace: %v\n", err)
		os.Exit(1)
	}
}

func loadSource(corpusName string, args []string) (name, src string, err error) {
	if corpusName != "" {
		e, ok := corpus.Get(corpusName)
		if !ok {
			return "", "", fmt.Errorf("unknown corpus grammar %q (try: %v)", corpusName, corpus.Names())
		}
		return e.Name, e.Source, nil
	}
	if len(args) != 1 {
		return "", "", fmt.Errorf("usage: cexgen [flags] grammar.cfg | cexgen -corpus NAME")
	}
	b, err := os.ReadFile(args[0])
	if err != nil {
		return "", "", err
	}
	return args[0], string(b), nil
}
