package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/engine"
	"lrcex/internal/grammar"
)

// A grammar whose pipeline run is short is run again within the same pass
// until repBudget is spent (at most maxReps runs), so the per-grammar best
// of a millisecond-scale grammar rests on more than one clock reading.
const (
	repBudget = 50 * time.Millisecond
	maxReps   = 20
)

// namedFinds are the grammars whose search time gets its own per-layer
// metric: the four slowest searches of the corpus.
var namedFinds = []string{"Java.2", "Java.4", "C.4", "java-ext2"}

// firstRun keeps what the first library run of a grammar produced: the
// deterministic counts, and the unifying examples the ambiguity gate
// re-parses.
type firstRun struct {
	g                                    *grammar.Grammar
	unifying                             []*core.Example
	states, conflicts, nUnifying, capped int
	stats                                core.SearchStats
	reportBytes                          int
}

// libTally keeps, per grammar, the best stage times over repeated library
// pipeline runs.
type libTally struct {
	es    []entry
	best  []stages
	conf  [][]time.Duration // traced: per-conflict best Find
	first []*firstRun
}

func newLibTally(es []entry) *libTally {
	return &libTally{
		es:    es,
		best:  make([]stages, len(es)),
		conf:  make([][]time.Duration, len(es)),
		first: make([]*firstRun, len(es)),
	}
}

func (t *libTally) add(i int, r *libRun) {
	if t.first[i] != nil {
		t.best[i] = minStages(t.best[i], r.st)
		for k, d := range r.perConflict {
			t.conf[i][k] = min(t.conf[i][k], d)
		}
		return
	}
	f := &firstRun{
		g:           r.cp.g,
		states:      len(r.cp.tbl.A.States),
		conflicts:   len(r.cp.tbl.Conflicts),
		stats:       r.stats,
		reportBytes: r.reportBytes,
	}
	for _, ex := range r.exs {
		switch ex.Kind {
		case core.Unifying:
			f.nUnifying++
			f.unifying = append(f.unifying, ex)
		case core.NonunifyingTimeout:
			f.capped++
		}
	}
	t.first[i] = f
	t.best[i] = r.st
	t.conf[i] = slices.Clone(r.perConflict)
}

// totals returns each grammar's best pipeline time in milliseconds and their
// sum in seconds.
func (t *libTally) totals() ([]float64, float64) {
	out := make([]float64, len(t.best))
	var sum time.Duration
	for i, st := range t.best {
		out[i] = ms(st.total)
		sum += st.total
	}
	return out, sum.Seconds()
}

// validate is the ambiguity gate: every unifying example re-parses with at
// least two trees under the GLR oracle, and every grammar that yields one is
// marked ambiguous in the corpus.
func (t *libTally) validate(o *outcome) {
	for i, f := range t.first {
		if f == nil {
			continue
		}
		if f.nUnifying > 0 && !t.es[i].ambiguous {
			o.failf("%s: unifying counterexample on a grammar the corpus lists as unambiguous", t.es[i].name)
		}
		for _, ex := range f.unifying {
			n, err := engine.ValidateAmbiguous(f.g, ex.Nonterminal, ex.Syms)
			if err != nil || n < 2 {
				o.failf("%s: unifying example in state %d does not re-parse ambiguously (%d parses, %v)",
					t.es[i].name, ex.Conflict.State, n, err)
			}
		}
	}
}

// layers fills the library per-layer metrics from the per-grammar bests and
// the floor search times (one per grammar, or nil).
func (t *libTally) layers(v values, floor []time.Duration) {
	var sum stages
	var stats core.SearchStats
	var conf []float64
	var reportBytes, nUnifying, capped, states, conflicts int
	for i, b := range t.best {
		f := t.first[i]
		if f == nil {
			continue
		}
		sum.parse += b.parse
		sum.build += b.build
		sum.table += b.table
		sum.compile += b.compile
		sum.find += b.find
		sum.report += b.report
		stats.Add(f.stats)
		reportBytes += f.reportBytes
		nUnifying += f.nUnifying
		capped += f.capped
		states += f.states
		conflicts += f.conflicts
		for _, d := range t.conf[i] {
			conf = append(conf, ms(d))
		}
		if slices.Contains(namedFinds, t.es[i].name) {
			v["core.find_ms."+t.es[i].name] = ms(b.find)
		}
	}
	v["gdl.parse_ms"] = ms(sum.parse)
	v["lr.build_ms"] = ms(sum.build)
	v["lr.table_ms"] = ms(sum.table)
	v["lr.states"] = float64(states)
	v["lr.conflicts"] = float64(conflicts)
	v["core.compile_ms"] = ms(sum.compile)
	v["core.find_ms"] = ms(sum.find)
	v["core.find_p50_ms"] = quantile(conf, 0.50)
	v["core.find_p98_ms"] = quantile(conf, 0.98)
	var floorSum time.Duration
	for _, d := range floor {
		floorSum += d
	}
	v["core.find_floor_ms"] = ms(floorSum)
	v["core.unify_ms"] = ms(sum.find - floorSum)
	v["core.expanded"] = float64(stats.Expanded)
	v["core.pushed"] = float64(stats.Pushed)
	v["core.dedup_hits"] = float64(stats.DedupHits)
	v["core.peak_frontier"] = float64(stats.PeakFrontier)
	v["core.alloc_bytes"] = float64(stats.AllocBytes)
	v["core.path_expanded"] = float64(stats.PathExpanded)
	if n := stats.DedupHits + stats.Pushed; n > 0 {
		v["core.dedup_ratio"] = float64(stats.DedupHits) / float64(n)
	}
	if sum.find > 0 {
		v["core.configs_per_s"] = float64(stats.Expanded) / sum.find.Seconds()
	}
	if conflicts > 0 {
		v["core.unifying_share"] = float64(nUnifying) / float64(conflicts)
		v["core.capped_share"] = float64(capped) / float64(conflicts)
	}
	v["core.report_ms"] = ms(sum.report)
	v["core.report_bytes"] = float64(reportBytes)
}

// rows is one row per grammar: its size, its outcome counts, and its best
// stage times.
func (t *libTally) rows(floor []time.Duration) []row {
	out := make([]row, 0, len(t.es))
	for i, e := range t.es {
		f, b := t.first[i], t.best[i]
		if f == nil {
			continue
		}
		r := row{
			"grammar": e.name, "states": f.states, "conflicts": f.conflicts,
			"unifying": f.nUnifying, "capped": f.capped, "expanded": f.stats.Expanded,
			"parse_ms": ms(b.parse), "build_ms": ms(b.build), "table_ms": ms(b.table),
			"compile_ms": ms(b.compile), "find_ms": ms(b.find), "report_ms": ms(b.report),
			"total_ms": ms(b.total),
		}
		if floor != nil {
			r["floor_ms"] = ms(floor[i])
		}
		out = append(out, r)
	}
	return out
}

// floorFinds runs floorFind on every entry.
func floorFinds(es []entry) ([]time.Duration, error) {
	out := make([]time.Duration, len(es))
	for i, e := range es {
		d, err := floorFind(e)
		if err != nil {
			return nil, err
		}
		out[i] = d
	}
	return out, nil
}

// warmFrontEnd runs the front end once over every entry, so the measured
// window starts with the code and the heap warm.
func warmFrontEnd(es []entry) error {
	var st stages
	for _, e := range es {
		if _, err := frontEnd(e, nil, &st); err != nil {
			return err
		}
	}
	return nil
}

// runTable1Batch runs the full library pipeline on the corpus in Table-1
// order at the golden budget, in passes; each grammar keeps its best run.
// The first pass always runs, and a further pass starts only if a pass as
// long as the last one still ends inside the window. A pass (~20 s on the
// 2-core reference box, Java.2 alone ~15 s) is then one at the usual
// window, not one or two depending on the machine's speed that minute.
// Throughput is grammars per second of summed per-grammar bests; latency is
// the per-grammar best.
func runTable1Batch(cfg *config) (*outcome, error) {
	es := corpusEntries(cfg.smoke)
	goldens, setupS, err := setUp(func() (map[string]string, error) {
		g, err := loadGoldens(cfg.repo, es)
		if err != nil {
			return nil, err
		}
		return g, warmFrontEnd(es)
	}, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{e2e: values{"setup_s": setupS}, layer: values{}}
	opts := searchOptions(goldenBudget)
	sw := newStopwatch(cfg.traced)
	tally := newLibTally(es)
	mem := startMemProbe()
	start := time.Now()
	passes := 0
	var lastPass time.Duration
	for passes == 0 || time.Since(start)+lastPass <= cfg.window {
		passStart := time.Now()
		for i, e := range es {
			var spent time.Duration
			for rep := 0; rep == 0 || (spent < repBudget && rep < maxReps); rep++ {
				o.attempted++
				r, err := libraryPipeline(e, opts, sw)
				if err != nil {
					o.failed++
					o.failf("%v", err)
					break
				}
				spent += r.st.total
				if r.canonical != goldens[e.name] {
					o.failed++
					o.failf("%s: canonical report differs from its golden file", e.name)
				}
				tally.add(i, r)
			}
		}
		passes++
		lastPass = time.Since(passStart)
	}
	window := time.Since(start)
	mem.report(o.layer)
	fmt.Fprintf(cfg.log, "table1_batch: %d passes, %d pipeline runs in %.1f s\n", passes, o.attempted, window.Seconds())

	perGrammar, sumS := tally.totals()
	o.e2e["throughput_per_s"] = float64(len(es)) / sumS
	o.e2e["latency_p50_ms"] = quantile(perGrammar, 0.50)
	o.e2e["latency_tail_ms"] = quantile(perGrammar, 0.75) // 10 of 42 grammars lie beyond p75
	o.e2e["peak_rss_mb"] = peakRSSMiB()

	tally.validate(o)
	if cfg.traced {
		floor, err := floorFinds(es)
		if err != nil {
			return nil, err
		}
		tally.layers(o.layer, floor)
		o.rows = tally.rows(floor)
		o.layer["bench.stopwatch_overhead_pct"] = stopwatchOverheadPct(sw.laps, window)
	}
	return o, nil
}

// runCompileFront runs the front end and the conflict listing, no search,
// over the corpus in passes until the window has elapsed; each pass visits
// the grammars in a seeded order. Every compile is one latency sample.
func runCompileFront(cfg *config) (*outcome, error) {
	es := corpusEntries(cfg.smoke)
	want, setupS, err := setUp(func() (map[string][]string, error) {
		goldens, err := loadGoldens(cfg.repo, es)
		if err != nil {
			return nil, err
		}
		want := make(map[string][]string, len(es))
		for name, g := range goldens {
			want[name] = goldenListing(g)
		}
		return want, warmFrontEnd(es)
	}, nil)
	if err != nil {
		return nil, err
	}
	o := &outcome{e2e: values{"setup_s": setupS}, layer: values{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	sw := newStopwatch(cfg.traced)
	best := make([]stages, len(es))
	counts := make([][2]int, len(es)) // states, conflicts
	var lat []float64
	mem := startMemProbe()
	start := time.Now()
	for passes := 0; passes == 0 || time.Since(start) < cfg.window; passes++ {
		for _, i := range rng.Perm(len(es)) {
			e := es[i]
			o.attempted++
			t0 := time.Now()
			sw.reset(t0)
			var st stages
			cp, err := frontEnd(e, sw, &st)
			if err != nil {
				o.failed++
				o.failf("%v", err)
				continue
			}
			list := conflictListing(cp)
			st.list = sw.lap()
			st.total = time.Since(t0)
			lat = append(lat, ms(st.total))
			if !slices.Equal(list, want[e.name]) {
				o.failed++
				o.failf("%s: conflict listing differs from its golden file", e.name)
			}
			if best[i].total == 0 {
				best[i] = st
				counts[i] = [2]int{len(cp.tbl.A.States), len(cp.tbl.Conflicts)}
			} else {
				best[i] = minStages(best[i], st)
			}
		}
	}
	window := time.Since(start)
	mem.report(o.layer)

	o.e2e["throughput_per_s"] = float64(len(lat)) / window.Seconds()
	o.e2e["latency_p50_ms"] = quantile(lat, 0.50)
	// p95 lies inside the Java-family cluster (7 of 42 grammars, ~17% of
	// the samples). p99 lands on the slowest few dozen compiles of a run and
	// read 14.2 to 22.4 ms across ten runs.
	o.e2e["latency_tail_ms"] = quantile(lat, 0.95)
	o.e2e["peak_rss_mb"] = peakRSSMiB()

	if cfg.traced {
		var sum stages
		for i, b := range best {
			sum.parse += b.parse
			sum.build += b.build
			sum.table += b.table
			sum.compile += b.compile
			o.layer["lr.states"] += float64(counts[i][0])
			o.layer["lr.conflicts"] += float64(counts[i][1])
			o.rows = append(o.rows, row{
				"grammar": es[i].name, "states": counts[i][0], "conflicts": counts[i][1],
				"parse_ms": ms(b.parse), "build_ms": ms(b.build), "table_ms": ms(b.table),
				"compile_ms": ms(b.compile), "list_ms": ms(b.list), "total_ms": ms(b.total),
			})
		}
		o.layer["gdl.parse_ms"] = ms(sum.parse)
		o.layer["lr.build_ms"] = ms(sum.build)
		o.layer["lr.table_ms"] = ms(sum.table)
		o.layer["core.compile_ms"] = ms(sum.compile)
		o.layer["bench.stopwatch_overhead_pct"] = stopwatchOverheadPct(sw.laps, window)
	}
	return o, nil
}
