package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// goldenBudget is the configuration cap internal/core's golden reports were
// recorded at; serveBudget is the cap every cexd request asks for.
const (
	goldenBudget = 50000
	serveBudget  = 5000
)

// searchOptions is a fully deterministic budget: no wall clock anywhere, a
// fixed configuration cap, one conflict at a time. The work a search does is
// then a pure function of the grammar.
func searchOptions(maxConfigs int) core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         maxConfigs,
		Parallelism:        1,
	}
}

// entry is one input grammar.
type entry struct {
	name, src string
	ambiguous bool // Table 1's "Amb?" column
}

// corpusEntries returns the Table-1 corpus in Table-1 order, or in smoke mode
// the smoke subset.
func corpusEntries(smoke bool) []entry {
	names := corpus.Names()
	if smoke {
		names = corpus.SmokeNames()
	}
	out := make([]entry, 0, len(names))
	for _, n := range names {
		e, _ := corpus.Get(n)
		out = append(out, entry{name: e.Name, src: e.Source, ambiguous: e.Ambiguous})
	}
	return out
}

func goldenDir(repo string) string {
	return filepath.Join(repo, "internal", "core", "testdata", "golden")
}

// loadGoldens reads the recorded canonical report of every entry.
func loadGoldens(repo string, es []entry) (map[string]string, error) {
	out := make(map[string]string, len(es))
	for _, e := range es {
		b, err := os.ReadFile(filepath.Join(goldenDir(repo), e.name+".golden"))
		if err != nil {
			return nil, err
		}
		out[e.name] = string(b)
	}
	return out, nil
}

// stopwatch splits a traced pipeline run into per-layer laps. The nil
// stopwatch is the untraced run: lap reads no clock and returns 0, so an
// end-to-end run carries no instrumentation beyond its own start and end.
type stopwatch struct {
	last time.Time
	laps int
}

func newStopwatch(traced bool) *stopwatch {
	if !traced {
		return nil
	}
	return &stopwatch{}
}

func (s *stopwatch) reset(t time.Time) {
	if s != nil {
		s.last = t
	}
}

// lap returns the time since the previous lap.
func (s *stopwatch) lap() time.Duration {
	if s == nil {
		return 0
	}
	now := time.Now()
	d := now.Sub(s.last)
	s.last = now
	s.laps++
	return d
}

// stages holds one pipeline run's stopwatch readings (zero when untraced)
// and its total.
type stages struct {
	parse, build, table, compile, list, find, report, total time.Duration
}

// minStages keeps, field by field, the smaller reading of a and b.
func minStages(a, b stages) stages {
	return stages{
		parse: min(a.parse, b.parse), build: min(a.build, b.build), table: min(a.table, b.table),
		compile: min(a.compile, b.compile), list: min(a.list, b.list), find: min(a.find, b.find),
		report: min(a.report, b.report), total: min(a.total, b.total),
	}
}

// compiled is the front end's product for one grammar.
type compiled struct {
	g   *grammar.Grammar
	tbl *lr.Table
	c   *core.Compiled
}

// frontEnd runs gdl.Parse → lr.Build → lr.BuildTable → core.Compile.
func frontEnd(e entry, sw *stopwatch, st *stages) (*compiled, error) {
	g, err := gdl.Parse(e.name, e.src)
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", e.name, err)
	}
	st.parse = sw.lap()
	a := lr.Build(g)
	st.build = sw.lap()
	tbl := lr.BuildTable(a)
	st.table = sw.lap()
	c := core.Compile(tbl)
	st.compile = sw.lap()
	return &compiled{g: g, tbl: tbl, c: c}, nil
}

// libRun is one run of the full library pipeline on one grammar.
type libRun struct {
	cp          *compiled
	exs         []*core.Example
	perConflict []time.Duration // traced: each conflict's Find
	stats       core.SearchStats
	canonical   string
	reportBytes int
	st          stages
}

// libraryPipeline runs parse → report: the front end, the counterexample
// search over every conflict, Example.Report for each example, and the
// canonical report. Untraced, the search is one FindAll; traced, it is one
// Find per conflict so each conflict gets its own lap.
func libraryPipeline(e entry, opts core.Options, sw *stopwatch) (*libRun, error) {
	start := time.Now()
	sw.reset(start)
	r := &libRun{}
	cp, err := frontEnd(e, sw, &r.st)
	if err != nil {
		return nil, err
	}
	r.cp = cp
	f := core.NewFinderFromCompiled(cp.c, opts)
	if sw == nil {
		r.exs, err = f.FindAll()
	} else {
		r.st.find = sw.lap()
		r.exs = make([]*core.Example, 0, len(cp.tbl.Conflicts))
		r.perConflict = make([]time.Duration, 0, len(cp.tbl.Conflicts))
		for _, c := range cp.tbl.Conflicts {
			var ex *core.Example
			if ex, err = f.Find(c); err != nil {
				break
			}
			d := sw.lap()
			r.exs = append(r.exs, ex)
			r.perConflict = append(r.perConflict, d)
			r.st.find += d
		}
	}
	if err != nil {
		return nil, fmt.Errorf("search %s: %w", e.name, err)
	}
	r.stats = f.Stats()
	a := cp.tbl.A
	for _, ex := range r.exs {
		r.reportBytes += len(ex.Report(a))
	}
	r.canonical = core.CanonicalReport(a, r.exs)
	r.st.report = sw.lap()
	r.st.total = time.Since(start)
	return r, nil
}

// floorFind times the search at MaxConfigs=1 on a fresh front end: the path
// searches plus the nonunifying construction, with the unifying search cut
// off after one configuration. It runs outside every measured window.
func floorFind(e entry) (time.Duration, error) {
	var st stages
	cp, err := frontEnd(e, nil, &st)
	if err != nil {
		return 0, err
	}
	f := core.NewFinderFromCompiled(cp.c, searchOptions(1))
	start := time.Now()
	if _, err := f.FindAll(); err != nil {
		return 0, fmt.Errorf("floor search %s: %w", e.name, err)
	}
	return time.Since(start), nil
}

// conflictListing renders every conflict's coordinates the way the golden
// files do (the first three lines of a canonical record: kind, state and
// symbols, then both items, all under normalized names), sorted.
func conflictListing(cp *compiled) []string {
	a := cp.tbl.A
	nm := core.NewNameNormalizer(cp.g)
	out := make([]string, len(cp.tbl.Conflicts))
	for i, c := range cp.tbl.Conflicts {
		out[i] = fmt.Sprintf("conflict: %s state=%d sym=%s syms=(%s)\nitem1: %s\nitem2: %s\n",
			c.Kind, c.State, nm.Name(c.Sym), normSyms(nm, c.Syms, -1),
			normItem(nm, a, c.Item1), normItem(nm, a, c.Item2))
	}
	sort.Strings(out)
	return out
}

// goldenListing extracts the same coordinates from a golden report.
func goldenListing(golden string) []string {
	records := strings.Split(golden, "\n\n")
	out := make([]string, 0, len(records))
	for _, rec := range records {
		lines := strings.SplitN(rec, "\n", 4)
		if len(lines) < 3 {
			continue
		}
		out = append(out, strings.Join(lines[:3], "\n")+"\n")
	}
	sort.Strings(out)
	return out
}

func normSyms(nm *core.NameNormalizer, seq []grammar.Sym, dot int) string {
	parts := make([]string, 0, len(seq)+1)
	for i, s := range seq {
		if i == dot {
			parts = append(parts, "•")
		}
		parts = append(parts, nm.Name(s))
	}
	if dot == len(seq) {
		parts = append(parts, "•")
	}
	return strings.Join(parts, " ")
}

func normItem(nm *core.NameNormalizer, a *lr.Automaton, it lr.Item) string {
	p := a.G.Production(a.Prod(it))
	return nm.Name(p.LHS) + " -> " + normSyms(nm, p.RHS, a.Dot(it))
}
