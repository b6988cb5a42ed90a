// Package eval measures the counterexample finder on corpus grammars and
// renders the paper's Table 1. It is shared by cmd/cexeval, the benchmark
// harness, and the evaluation tests.
package eval

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"lrcex/internal/baseline"
	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
	"lrcex/internal/trace"
)

// Row is one Table 1 row as measured by this implementation.
type Row struct {
	Name     string
	Category corpus.Category

	Nonterms  int
	Prods     int
	States    int
	Conflicts int

	// Ambiguous is true when at least one unifying counterexample was found
	// (a proof of ambiguity); ExpectedAmbiguous is the ground truth recorded
	// in the corpus.
	Ambiguous         bool
	ExpectedAmbiguous bool

	Unif    int
	Nonunif int
	Timeout int
	// Skipped counts conflicts handled nonunifying-only because the
	// cumulative budget was already spent (Table 1 shows these in
	// parentheses, e.g. Java.2's "(983)").
	Skipped int

	// Total is the summed Example.Elapsed of conflicts that did not time
	// out, and Avg is Total / (Unif + Nonunif). Each Elapsed covers only the
	// conflict's own work, so neither includes the shortest-path search the
	// Finder runs once for all conflicts; Wall does.
	Total time.Duration
	Avg   time.Duration
	// Wall is the wall-clock time of the whole FindAll call, the shared
	// shortest-path search included. With Finder.Parallelism > 1 it is
	// usually smaller than Total (the per-conflict sum): Total/Wall is the
	// realized parallel speedup.
	Wall time.Duration
	// ParseWall and BuildWall break the pre-search cost down: GDL parse
	// versus LALR automaton + table + search-graph construction. Together
	// with Wall they are the per-phase view the -stats flag reports.
	ParseWall time.Duration
	BuildWall time.Duration

	// BaselineTime is the bounded exhaustive detector's time (Section 7.3's
	// parenthesized column), measured only when requested.
	BaselineTime    time.Duration
	BaselineDone    bool
	BaselineCorrect bool

	// Stats aggregates the per-conflict search statistics (sums; PeakFrontier
	// is the max over conflicts) — frontier traffic, dedup hits, allocation
	// footprint of the zero-copy search core.
	Stats core.SearchStats

	Examples []*core.Example
	Err      error
}

// Options configures a measurement run.
type Options struct {
	Finder core.Options
	// Baseline enables the bounded ambiguity detector comparison.
	Baseline bool
	// BaselineOpts configures it.
	BaselineOpts baseline.AmberOptions
}

// Build parses and tables a corpus entry.
func Build(e *corpus.Entry) (*grammar.Grammar, *lr.Table, error) {
	g, err := gdl.Parse(e.Name, e.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", e.Name, err)
	}
	return g, lr.BuildTable(lr.Build(g)), nil
}

// Measure runs the counterexample finder on one corpus grammar.
func Measure(e *corpus.Entry, opts Options) Row {
	return MeasureContext(context.Background(), e, opts)
}

// MeasureContext is Measure with a caller context: cancellation propagates
// into the search, and when ctx carries a trace span (cexeval -trace-out,
// cextrace) the run records a grammar span with gdl.parse / table.build /
// search children so the long-pole profiler can attribute conflict time to
// grammars.
func MeasureContext(ctx context.Context, e *corpus.Entry, opts Options) Row {
	ctx, gsp := trace.Start(ctx, "grammar")
	gsp.Set("name", e.Name)
	defer gsp.End()

	row := Row{Name: e.Name, Category: e.Category, ExpectedAmbiguous: e.Ambiguous}
	parseStart := time.Now()
	psp := trace.Child(ctx, "gdl.parse")
	g, err := gdl.Parse(e.Name, e.Source)
	if err != nil {
		psp.Set("error", err.Error())
		psp.End()
		row.Err = fmt.Errorf("parsing %s: %w", e.Name, err)
		return row
	}
	psp.Set("productions", g.NumProductions())
	psp.End()
	row.ParseWall = time.Since(parseStart)
	buildStart := time.Now()
	bsp := trace.Child(ctx, "table.build")
	tbl := lr.BuildTable(lr.Build(g))
	compiled := core.Compile(tbl)
	bsp.Set("states", len(tbl.A.States))
	bsp.End()
	row.BuildWall = time.Since(buildStart)
	row.Nonterms = len(g.Nonterminals())
	row.Prods = g.NumProductions()
	row.States = len(tbl.A.States)
	row.Conflicts = len(tbl.Conflicts)

	finder := core.NewFinderFromCompiled(compiled, opts.Finder)
	wallStart := time.Now()
	sctx, ssp := trace.Start(ctx, "search")
	ssp.Set("conflicts", len(tbl.Conflicts))
	exs, err := finder.FindAllContext(sctx)
	ssp.End()
	row.Wall = time.Since(wallStart)
	if err != nil {
		row.Err = err
		return row
	}
	row.Examples = exs
	row.Stats = finder.Stats()
	for _, ex := range exs {
		switch ex.Kind {
		case core.Unifying:
			row.Unif++
			row.Ambiguous = true
			row.Total += ex.Elapsed
		case core.NonunifyingExhausted:
			row.Nonunif++
			row.Total += ex.Elapsed
		case core.NonunifyingSkipped:
			row.Skipped++
		default:
			row.Timeout++
		}
	}
	if n := row.Unif + row.Nonunif; n > 0 {
		row.Avg = row.Total / time.Duration(n)
	}

	if opts.Baseline {
		start := time.Now()
		res := baseline.DetectAmbiguity(g, opts.BaselineOpts)
		row.BaselineTime = time.Since(start)
		row.BaselineDone = res.Ambiguous || res.Exhausted
		row.BaselineCorrect = res.Ambiguous == e.Ambiguous || !res.Ambiguous && !res.Exhausted
	}
	return row
}

// Table1 measures every entry (or the given subset) in corpus order. A GC
// cycle runs between grammars so that retained search frontiers from one
// grammar do not distort the next grammar's timing.
func Table1(entries []*corpus.Entry, opts Options) []Row {
	return Table1Context(context.Background(), entries, opts)
}

// Table1Context is Table1 with a caller context (see MeasureContext).
func Table1Context(ctx context.Context, entries []*corpus.Entry, opts Options) []Row {
	rows := make([]Row, 0, len(entries))
	for _, e := range entries {
		rows = append(rows, MeasureContext(ctx, e, opts))
		runtime.GC()
	}
	return rows
}

// FormatRows renders rows in the layout of Table 1.
func FormatRows(rows []Row, withBaseline bool) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-12s %8s %6s %7s %10s %5s %6s %8s %8s %10s %10s",
		"Grammar", "#nonterm", "#prods", "#states", "#conflicts", "Amb?", "#unif", "#nonunif", "#timeout", "Total", "Average")
	if withBaseline {
		fmt.Fprintf(&sb, " %12s", "(baseline)")
	}
	sb.WriteByte('\n')
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-12s ERROR: %v\n", r.Name, r.Err)
			continue
		}
		amb := "no"
		if r.Ambiguous {
			amb = "yes"
		}
		timeout := fmt.Sprintf("%d", r.Timeout)
		if r.Skipped > 0 {
			timeout = fmt.Sprintf("%d (%d)", r.Timeout, r.Skipped)
		}
		fmt.Fprintf(&sb, "%-12s %8d %6d %7d %10d %5s %6d %8d %8s %10s %10s",
			r.Name, r.Nonterms, r.Prods, r.States, r.Conflicts, amb,
			r.Unif, r.Nonunif, timeout, fmtDur(r.Total), fmtDur(r.Avg))
		if withBaseline {
			fmt.Fprintf(&sb, " %12s", fmtDur(r.BaselineTime))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func fmtDur(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fs", d.Seconds())
}
