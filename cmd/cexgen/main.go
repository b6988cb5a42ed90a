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

	"lrcex/internal/cliflags"
	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/faults"
	"lrcex/internal/gdl"
	"lrcex/internal/lr"
	"lrcex/internal/repair"
	"lrcex/internal/trace"
)

func main() {
	var (
		corpusName = flag.String("corpus", "", "analyze a built-in corpus grammar instead of a file")
		quiet      = flag.Bool("q", false, "print one summary line per conflict instead of full reports")
	)
	// The search-tuning and instrumentation surface (-timeout, -cumulative,
	// -notimeout, -j, -extendedsearch, -maxconfigs, -maxarena, -stats,
	// -trace-out, -cpuprofile, -memprofile, ...) is shared with cexeval via
	// internal/cliflags so the two tools stay uniform.
	search := cliflags.RegisterSearch(flag.CommandLine)
	flag.Parse()

	if err := faults.EnableSpec(search.Faults); err != nil {
		fmt.Fprintln(os.Stderr, "cexgen:", err)
		os.Exit(1)
	}

	stopProf, err := search.StartProfiles()
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

	_, parse := trace.Time(ctx, "gdl.parse")
	g, err := gdl.Parse(name, src)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cexgen:", err)
		os.Exit(1)
	}
	parse.Span().Set("productions", g.NumProductions())
	parseWall := parse.End()
	// One compiled search graph serves the searches and, under -repair, the
	// advisor.
	_, build := trace.Time(ctx, "table.build")
	tbl := lr.BuildTable(lr.Build(g))
	compiled := core.Compile(tbl)
	finder := core.NewFinderFromCompiled(compiled, search.FinderOptions())
	build.Span().Set("states", len(tbl.A.States))
	buildWall := build.End()

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
		name, len(g.Nonterminals()), g.NumProductions(), len(tbl.A.States), len(tbl.Conflicts))
	if n := len(tbl.Resolved); n > 0 {
		fmt.Printf(" (%d more resolved by precedence)", n)
	}
	fmt.Println()

	if len(tbl.Conflicts) == 0 {
		fmt.Println("No conflicts: the grammar is LALR(1).")
		if err := finishTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "cexgen: trace: %v\n", err)
		}
		return
	}
	// FindAll searches the conflicts on a worker pool (-j) and returns the
	// results in conflict order, so the report order matches the sequential
	// tool exactly.
	sctx, searchPhase := trace.Time(ctx, "search")
	searchPhase.Span().Set("conflicts", len(tbl.Conflicts))
	exs, err := finder.FindAllContext(sctx)
	searchWall := searchPhase.End()
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
		fmt.Print(ex.Report(tbl.A))
	}
	if search.Stats {
		fmt.Printf("\nsearch stats: %s\n", finder.Stats())
		fmt.Printf("phase times: parse %v, build %v, search %v\n",
			parseWall.Round(time.Millisecond), buildWall.Round(time.Millisecond), searchWall.Round(time.Millisecond))
	}

	// -repair: run the conflict-repair advisor over the analysis just
	// printed, reusing the compiled tables and the counterexamples as probes.
	if search.Repair {
		rep, err := repair.Advise(ctx, repair.Input{
			Name:     name,
			Grammar:  g,
			Compiled: compiled,
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
