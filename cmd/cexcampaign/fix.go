package main

import (
	"context"
	"flag"
	"log"
	"sync"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
	"lrcex/internal/repair"
)

// The fix campaign runs the conflict-repair advisor over the corpus: for
// every grammar it synthesizes candidate fixes from the counterexample
// analysis, validates each candidate by recompilation and sentence replay,
// and checks that the ranked report is byte-identical at 1 and 8 validation
// workers (BENCH_repair.json). A grammar fails the campaign when its advice
// errors, when a validated suggestion is language-breaking (a replay probe
// broke but the candidate survived — impossible by construction, checked
// anyway), or when the ranking differs between worker counts. For one
// grammar's advisory report, run cexgen -corpus NAME -repair.

// GrammarRecord is one grammar's campaign row.
type GrammarRecord struct {
	Name     string `json:"name"`
	Category string `json:"category"`

	Conflicts  int            `json:"conflicts"`
	Candidates int            `json:"candidates"`
	Patches    int            `json:"patches"`
	Validated  int            `json:"validated"`
	Rejected   map[string]int `json:"rejected,omitempty"`

	BestScore      int  `json:"best_score"`
	ConflictsAfter int  `json:"conflicts_after_best"` // under the best validated patch
	ZeroConflict   bool `json:"zero_conflict"`

	Probes        int `json:"probes"`
	ProbesSkipped int `json:"probes_skipped,omitempty"`

	// Deterministic reports whether the rendered ranking was byte-identical
	// at -j 1 and -j 8.
	Deterministic bool `json:"deterministic"`
	// SurvivingBreaking counts validated suggestions with broken probes —
	// must be zero; the campaign fails otherwise.
	SurvivingBreaking int `json:"surviving_breaking"`

	WallMS float64 `json:"wall_ms"`
	Error  string  `json:"error,omitempty"`
}

// Campaign is the full BENCH_repair.json document.
type Campaign struct {
	Budget        int `json:"budget"`
	MaxCandidates int `json:"max_candidates"`

	Grammars []GrammarRecord `json:"grammars"`

	Totals struct {
		Grammars          int `json:"grammars"`
		Conflicts         int `json:"conflicts"`
		Candidates        int `json:"candidates"`
		Validated         int `json:"validated"`
		Rejected          int `json:"rejected"`
		ZeroConflict      int `json:"zero_conflict"`
		RepairableSome    int `json:"some_fix_validated"`
		SurvivingBreaking int `json:"surviving_breaking"`
		Nondeterministic  int `json:"nondeterministic"`
	} `json:"totals"`
}

func runFix(args []string) int {
	fs := flag.NewFlagSet("fix", flag.ExitOnError)
	var (
		out   = fs.String("out", "", "write the JSON report here (default stdout)")
		smoke = fs.Bool("smoke", false, "run the small smoke subset instead of the full corpus")
		quiet = fs.Bool("q", false, "suppress the per-grammar progress lines")
		ropts = repair.Options{Compile: memoCompile()}
	)
	// The advisor's two knobs, named as cexgen names them (internal/cliflags).
	fs.IntVar(&ropts.Budget, "repair-budget", 0, "configurations expanded when validating each repair candidate (0 = advisor default)")
	fs.IntVar(&ropts.MaxCandidates, "max-candidates", 0, "repair candidates synthesized per conflict (0 = advisor default)")
	fs.Parse(args)

	c := &Campaign{Budget: ropts.Budget, MaxCandidates: ropts.MaxCandidates}
	var violations []string
	for _, e := range campaignCorpus("fix", *smoke) {
		rec := measure(e, ropts)
		c.Grammars = append(c.Grammars, rec)
		c.Totals.Grammars++
		c.Totals.Conflicts += rec.Conflicts
		c.Totals.Candidates += rec.Candidates
		c.Totals.Validated += rec.Validated
		for _, n := range rec.Rejected {
			c.Totals.Rejected += n
		}
		if rec.ZeroConflict {
			c.Totals.ZeroConflict++
		}
		if rec.Validated > 0 {
			c.Totals.RepairableSome++
		}
		c.Totals.SurvivingBreaking += rec.SurvivingBreaking
		if !rec.Deterministic {
			c.Totals.Nondeterministic++
		}
		var status string
		switch {
		case rec.Error != "":
			status = "ERROR: " + rec.Error
		case rec.SurvivingBreaking > 0:
			status = "LANGUAGE-BREAKING SUGGESTION SURVIVED"
		case !rec.Deterministic:
			status = "NONDETERMINISTIC RANKING"
		case rec.ZeroConflict:
			status = "zero-conflict fix"
		case rec.Validated > 0:
			status = "partial fix"
		case rec.Conflicts == 0:
			status = "no conflicts"
		default:
			status = "no validated fix"
		}
		if rec.Error != "" || rec.SurvivingBreaking > 0 || !rec.Deterministic {
			violations = append(violations, e.Name+": "+status)
		}
		if !*quiet {
			log.Printf("%-14s %2d conflicts, %3d candidates, %3d validated  %8.0fms  %s",
				e.Name, rec.Conflicts, rec.Candidates, rec.Validated, rec.WallMS, status)
		}
	}
	log.Printf("%d grammars, %d conflicts, %d candidates, %d validated, %d zero-conflict fixes",
		c.Totals.Grammars, c.Totals.Conflicts, c.Totals.Candidates, c.Totals.Validated, c.Totals.ZeroConflict)
	return verdict(*out, c, violations)
}

// measure runs the advisor twice on one grammar — at 1 and 8 validation
// workers — and folds both into one record with the byte-identity verdict.
func measure(e *corpus.Entry, ropts repair.Options) GrammarRecord {
	rec := GrammarRecord{Name: e.Name, Category: e.Category.String()}
	g := e.Grammar()

	// The deterministic analysis (NoTimeout + MaxConfigs) runs once; both
	// advisor passes share its examples so the j1/j8 comparison isolates the
	// validation pool.
	budget := ropts.Budget
	if budget <= 0 {
		budget = 2000
	}
	compiled := core.Compile(lr.BuildTable(lr.Build(g)))
	exs, err := core.NewFinderFromCompiled(compiled, detOptions(0, budget)).FindAll()
	if err != nil {
		rec.Error = err.Error()
		return rec
	}

	start := time.Now()
	var renders [2]string
	var res *repair.Result
	for i, j := range []int{1, 8} {
		o := ropts
		o.Parallelism = j
		r, err := repair.Advise(context.Background(), repair.Input{
			Name: e.Name, Grammar: g, Compiled: compiled, Examples: exs,
		}, o)
		if err != nil {
			rec.Error = err.Error()
			return rec
		}
		renders[i] = r.Render()
		res = r
	}
	rec.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
	rec.Deterministic = renders[0] == renders[1]

	rec.Conflicts = res.ConflictCount
	rec.Candidates = res.Candidates
	rec.Patches = res.Patches
	rec.Validated = res.Validated
	rec.Rejected = res.Rejected
	rec.BestScore = res.BestScore
	rec.ZeroConflict = res.ZeroConflict
	rec.Probes = res.Probes
	rec.ProbesSkipped = res.ProbesSkipped

	rec.ConflictsAfter = rec.Conflicts
	for _, adv := range res.PerConflict {
		for _, o := range adv.Suggestions {
			if o.ConflictsAfter < rec.ConflictsAfter {
				rec.ConflictsAfter = o.ConflictsAfter
			}
			if o.ProbesBroken > 0 {
				rec.SurvivingBreaking++
			}
		}
	}
	return rec
}

// memoCompile memoizes candidate recompilation by patch source across the
// whole campaign — the CLI analogue of cexd's compiled-grammar cache, so the
// j1 and j8 passes (and identical patches across grammars) build each table
// once.
func memoCompile() repair.CompileFunc {
	type entry struct {
		g   *grammar.Grammar
		c   *core.Compiled
		err error
	}
	var mu sync.Mutex
	memo := map[string]*entry{}
	return func(name, src string) (*grammar.Grammar, *core.Compiled, error) {
		mu.Lock()
		if e, ok := memo[src]; ok {
			mu.Unlock()
			return e.g, e.c, e.err
		}
		mu.Unlock()
		e := &entry{}
		e.g, e.c, e.err = repair.DefaultCompile(name, src)
		mu.Lock()
		memo[src] = e
		mu.Unlock()
		return e.g, e.c, e.err
	}
}
