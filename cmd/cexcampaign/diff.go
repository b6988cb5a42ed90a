package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"sort"
	"strings"
	"time"

	"lrcex/internal/baseline"
	"lrcex/internal/core"
	"lrcex/internal/metamorph"
)

// The diff campaign is metamorphic differential testing: it fans the
// Table-1 corpus through seeded grammar mutations (internal/metamorph) and
// cross-checks the counterexample finder against itself and against
// independent oracles. Per (grammar, mutator, seed) cell:
//
//   - formatting mutants (whitespace/comment churn) must keep the
//     gdl.Fingerprint and the parsed grammar identical — the invariant the
//     cexd cache's content addressing rests on; the finder is not run;
//   - every other mutant is analyzed twice, sequentially (j=1) and with
//     eight workers (j=8), and the two canonical reports must be
//     byte-identical;
//   - Equivalent-class mutants (renames, precedence-level stretches) must
//     reproduce the original's conflict coordinates, canonical report, and
//     search stats exactly; ConflictsPreserved mutants (production
//     reordering) must match in aggregate;
//   - all mutants' unifying examples are re-validated under the GLR oracle
//     and nonunifying prefixes under the lookahead-sensitive replay
//     (sampled; skips are counted, never silent);
//   - the naive prior-PPG baseline's validity rate is re-measured across
//     original and mutated grammars as a tracked metric.
//
// The report (BENCH_diff.json) is deterministic modulo timing, with
// per-mutator counts.

type mutatorCounts struct {
	Class      string                `json:"class"`
	Applied    int                   `json:"applied"`
	Skipped    int                   `json:"skipped"` // mutator inapplicable to the grammar
	Violations int                   `json:"violations"`
	Oracle     metamorph.OracleStats `json:"oracle"`
}

type diffReport struct {
	header
	Grammars     int                      `json:"grammars"`
	Mutators     int                      `json:"mutators"`
	Seeds        int                      `json:"seeds"`
	MaxConfigs   int                      `json:"max_configs"`
	OracleSample int                      `json:"oracle_sample"`
	StatsRatio   float64                  `json:"stats_ratio"`
	Cells        int                      `json:"cells"` // grammar x mutator x seed
	ParallelDiff int                      `json:"parallel_differentials"`
	PerMutator   map[string]mutatorCounts `json:"per_mutator"`
	NaiveValid   int                      `json:"naive_valid"`
	NaiveTotal   int                      `json:"naive_total"`
	NaiveRate    float64                  `json:"naive_validity_rate"`
	Violations   []metamorph.Violation    `json:"violations"`
	ElapsedMS    int64                    `json:"elapsed_ms"`
}

func runDiff(args []string) int {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	var (
		seeds        = fs.Int("seeds", 5, "seeds per (grammar, mutator) cell")
		maxConfigs   = fs.Int("maxconfigs", 2000, "deterministic unifying-search budget per conflict")
		conc         = fs.Int("conc", runtime.GOMAXPROCS(0), "concurrent cells")
		out          = fs.String("out", "", "write the JSON report here (default stdout)")
		oracleSample = fs.Int("oracle-sample", 4, "oracle checks per kind per analysis (0 = all)")
		statsRatio   = fs.Float64("stats-ratio", 16, "allowed search-effort ratio for conflicts-preserved mutants")
		naiveMax     = fs.Int("naive-max", 25, "naive-baseline conflicts measured per grammar (0 = all)")
		grammars     = fs.String("grammars", "", "comma-separated grammar names (default: full corpus)")
		mutatorsFlag = fs.String("mutators", "", "comma-separated mutator names (default: all)")
		smoke        = fs.Bool("smoke", false, "smoke mode: 3 mutators x 5 grammars x 2 seeds")
		verbose      = fs.Bool("v", false, "log per-cell progress")
	)
	fs.Parse(args)

	if *seeds < 1 {
		log.Fatalf("-seeds %d: need at least one seed per cell", *seeds)
	}
	if *maxConfigs < 1 {
		log.Fatalf("-maxconfigs %d: the deterministic budget must be positive", *maxConfigs)
	}
	if *conc < 1 {
		log.Fatalf("-conc %d: need at least one worker", *conc)
	}

	grams := campaignCorpus("diff", *smoke)
	muts := metamorph.All()
	if *smoke {
		muts = pickMutators([]string{"ws-churn", "rename-symbols", "reorder-prods"})
		*seeds = 2
	}
	if *grammars != "" {
		grams = entries(strings.Split(*grammars, ","))
	}
	if *mutatorsFlag != "" {
		muts = pickMutators(strings.Split(*mutatorsFlag, ","))
	}

	opts := detOptions(1, *maxConfigs)
	cfg := metamorph.CheckConfig{StatsRatio: *statsRatio, OracleSample: *oracleSample}

	start := time.Now()
	rep := diffReport{
		header:       newHeader("cexdiff", false),
		Grammars:     len(grams),
		Mutators:     len(muts),
		Seeds:        *seeds,
		MaxConfigs:   *maxConfigs,
		OracleSample: *oracleSample,
		StatsRatio:   *statsRatio,
		PerMutator:   map[string]mutatorCounts{},
		Violations:   []metamorph.Violation{},
	}
	for _, m := range muts {
		rep.PerMutator[m.Name] = mutatorCounts{Class: m.Class.String()}
	}

	type cell struct {
		in   metamorph.Input
		orig *metamorph.Analysis
		m    metamorph.Mutator
		seed uint64
	}
	var cells []cell

	// Per-grammar setup runs sequentially: one baseline analysis per grammar
	// (plus its own oracle pass and naive-validity measurement), then the
	// mutation cells fan out over the worker pool.
	for _, e := range grams {
		in := metamorph.Input{Name: e.Name, Source: e.Source, Grammar: e.Grammar()}
		orig, err := metamorph.Analyze(in.Grammar, opts)
		if err != nil {
			log.Fatalf("%s: baseline analysis: %v", e.Name, err)
		}
		v, t := baseline.ValidityRate(orig.Table, *naiveMax)
		rep.NaiveValid += v
		rep.NaiveTotal += t
		for _, m := range muts {
			for s := 1; s <= *seeds; s++ {
				cells = append(cells, cell{in: in, orig: orig, m: m, seed: uint64(s)})
			}
		}
	}
	rep.Cells = len(cells)

	results := make([]cellOutcome, len(cells))
	parallel(len(cells), *conc, func(i int) {
		c := cells[i]
		results[i] = runCell(c.in, c.orig, c.m, c.seed, opts, cfg, *naiveMax)
		if *verbose {
			log.Printf("%s/%s/%d: %d violation(s)", c.in.Name, c.m.Name, c.seed, len(results[i].violations))
		}
	})

	for i, r := range results {
		mc := rep.PerMutator[cells[i].m.Name]
		if r.applied {
			mc.Applied++
		} else {
			mc.Skipped++
		}
		mc.Violations += len(r.violations)
		mc.Oracle.Add(r.oracle)
		rep.PerMutator[cells[i].m.Name] = mc
		rep.ParallelDiff += r.pdiffs
		rep.NaiveValid += r.naiveV
		rep.NaiveTotal += r.naiveT
		rep.Violations = append(rep.Violations, r.violations...)
	}
	if rep.NaiveTotal > 0 {
		rep.NaiveRate = float64(rep.NaiveValid) / float64(rep.NaiveTotal)
	}
	sort.SliceStable(rep.Violations, func(i, j int) bool {
		a, b := rep.Violations[i], rep.Violations[j]
		if a.Grammar != b.Grammar {
			return a.Grammar < b.Grammar
		}
		if a.Mutator != b.Mutator {
			return a.Mutator < b.Mutator
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Invariant < b.Invariant
	})
	rep.ElapsedMS = time.Since(start).Milliseconds()

	lines := make([]string, 0, len(rep.Violations))
	for _, v := range rep.Violations {
		lines = append(lines, fmt.Sprintf("%s/%s/%d %s: %s", v.Grammar, v.Mutator, v.Seed, v.Invariant, v.Detail))
	}
	log.Printf("%d cells, %d parallel differentials, naive validity %d/%d (%.0f%%), %d violation(s)",
		rep.Cells, rep.ParallelDiff, rep.NaiveValid, rep.NaiveTotal, 100*rep.NaiveRate, len(rep.Violations))
	return verdict(*out, &rep, lines)
}

type cellOutcome struct {
	applied    bool
	violations []metamorph.Violation
	oracle     metamorph.OracleStats
	pdiffs     int
	naiveV     int
	naiveT     int
}

// runCell executes one (grammar, mutator, seed) cell of the campaign.
func runCell(in metamorph.Input, orig *metamorph.Analysis, m metamorph.Mutator, seed uint64, opts core.Options, cfg metamorph.CheckConfig, naiveMax int) cellOutcome {
	ref := metamorph.Ref{Grammar: in.Name, Mutator: m.Name, Seed: seed}
	var out cellOutcome
	mut, err := m.Apply(in, seed)
	if err != nil {
		out.applied = true
		out.violations = append(out.violations, metamorph.Violation{
			Grammar: in.Name, Mutator: m.Name, Seed: seed,
			Invariant: "mutator", Detail: err.Error(),
		})
		return out
	}
	if mut == nil {
		return out // inapplicable: counted as skipped
	}
	out.applied = true

	if mut.Class == metamorph.Formatting {
		out.violations = append(out.violations, metamorph.CheckFormatting(ref, in, mut)...)
		return out
	}

	// Finder differential: sequential vs eight workers, then class checks
	// against the original, then the universal oracles — all on the j=1
	// analysis so stats comparisons see identical scheduling.
	seq, err := metamorph.Analyze(mut.Grammar, opts)
	if err != nil {
		out.violations = append(out.violations, ref.Violation("analysis", err.Error()))
		return out
	}
	popts := opts
	popts.Parallelism = 8
	par, err := metamorph.Analyze(mut.Grammar, popts)
	if err != nil {
		out.violations = append(out.violations, ref.Violation("analysis", "j=8: "+err.Error()))
		return out
	}
	out.pdiffs = 1
	if seq.Canonical != par.Canonical {
		out.violations = append(out.violations, ref.Violation("parallel-determinism",
			fmt.Sprintf("canonical reports differ between j=1 and j=8 (%d vs %d bytes)",
				len(seq.Canonical), len(par.Canonical))))
	}
	out.violations = append(out.violations, metamorph.CheckPair(ref, mut.Class, orig, seq, cfg)...)
	vs, ost := metamorph.CheckOracles(ref, seq, cfg)
	out.violations = append(out.violations, vs...)
	out.oracle = ost

	out.naiveV, out.naiveT = baseline.ValidityRate(seq.Table, naiveMax)
	return out
}

func pickMutators(names []string) []metamorph.Mutator {
	var out []metamorph.Mutator
	for _, n := range names {
		m, ok := metamorph.ByName(strings.TrimSpace(n))
		if !ok {
			log.Fatalf("unknown mutator %q", n)
		}
		out = append(out, m)
	}
	return out
}
