// Package repair closes the loop the paper opens: where the counterexample
// search explains WHY a grammar conflicts, this package proposes ranked,
// machine-validated fixes. For every conflict it synthesizes typed candidate
// patches from the conflict coordinates, the lookahead token, and the
// counterexample derivations (precedence/associativity declarations, %prec
// overrides, and structural rewrites for the dangling-else and
// operator-chain shapes), recompiles each patch, scores it by conflicts
// eliminated minus conflicts introduced, and rejects any patch under which
// an original counterexample sentence stops parsing in the GLR baseline —
// a repair that silently shrinks the language is worse than the conflict.
//
// Everything is deterministic: candidate generation is sequential, patches
// are canonical gdl.Print output, validation is a pure function of
// (patch, options), and the ranking consults no indices or timings — so the
// advisory report is byte-identical at any worker count.
package repair

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"lrcex/internal/core"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
	"lrcex/internal/trace"
)

// CompileFunc turns a candidate GDL patch into an analyzable grammar. The
// default parses and builds directly; cexd installs a hook that consults its
// compiled-grammar cache first.
type CompileFunc func(name, src string) (*grammar.Grammar, *core.Compiled, error)

// DefaultCompile is the hook Advise uses when Options.Compile is nil.
func DefaultCompile(name, src string) (*grammar.Grammar, *core.Compiled, error) {
	g, err := gdl.Parse(name, src)
	if err != nil {
		return nil, nil, err
	}
	return g, core.Compile(lr.BuildTable(lr.Build(g))), nil
}

// Options tunes the advisor. The zero value selects the defaults.
type Options struct {
	// MaxCandidates caps the candidates synthesized per conflict
	// (default 8; negative = unlimited).
	MaxCandidates int
	// Budget is the deterministic MaxConfigs budget for any counterexample
	// search the advisor runs: the up-front analysis when Input.Examples is
	// absent and the bounded re-analysis of each validated patch
	// (default 2000).
	Budget int
	// MaxPatches caps the distinct patches validated per grammar (default
	// 64; negative = unlimited). Candidates beyond the cap are reported as
	// rejected with reason "patch-budget", never dropped silently.
	MaxPatches int
	// Parallelism sizes the validation worker pool (default GOMAXPROCS).
	// It changes wall-clock only, never the report.
	Parallelism int
	// Compile recompiles candidate patches (default DefaultCompile).
	Compile CompileFunc
}

func (o Options) withDefaults() Options {
	if o.MaxCandidates == 0 {
		o.MaxCandidates = 8
	}
	if o.Budget <= 0 {
		o.Budget = 2000
	}
	if o.MaxPatches == 0 {
		o.MaxPatches = 64
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	if o.Compile == nil {
		o.Compile = DefaultCompile
	}
	return o
}

// Input is the grammar under repair plus whatever analysis artifacts the
// caller already holds; missing pieces are computed under Options.Budget.
type Input struct {
	Name    string
	Grammar *grammar.Grammar
	// Compiled is the grammar's parse table (built from Grammar when nil).
	Compiled *core.Compiled
	// Examples are the conflicts' counterexamples in conflict order, as
	// returned by Finder.FindAll (found under the deterministic budget when
	// nil). They seed both candidate synthesis and the replay probes.
	Examples []*core.Example
}

// ConflictAdvice is the per-conflict slice of the report.
type ConflictAdvice struct {
	// Conflict identifies the conflict by index, coordinates, and kind.
	Index int    `json:"index"`
	State int    `json:"state"`
	Sym   string `json:"sym"`
	Kind  string `json:"kind"`
	// Example is the counterexample kind that seeded synthesis.
	Example string `json:"example,omitempty"`
	// Suggestions are the validated candidates, best first.
	Suggestions []Outcome `json:"suggestions"`
	// RejectedOutcomes are the candidates that failed validation, in
	// ranking order, kept so campaigns can audit every rejection.
	RejectedOutcomes []Outcome `json:"rejected,omitempty"`
}

// Result is the full advisory report for one grammar.
type Result struct {
	Name          string `json:"name"`
	ConflictCount int    `json:"conflict_count"`
	// Candidate/validation tallies across all conflicts. Candidates counts
	// every synthesized candidate; Patches the distinct sources validated
	// (identical patches proposed by different conflicts validate once).
	Candidates int            `json:"candidates"`
	Patches    int            `json:"patches"`
	Validated  int            `json:"validated"`
	Rejected   map[string]int `json:"rejected,omitempty"`
	// BestScore is the best validated score across conflicts; ZeroConflict
	// reports whether some validated patch removes every conflict.
	BestScore    int  `json:"best_score"`
	ZeroConflict bool `json:"zero_conflict"`
	// Probes is the calibrated replay-sentence count; ProbesSkipped counts
	// counterexample sentences the original GLR baseline could not confirm
	// (and which therefore constrain nothing).
	Probes        int `json:"probes"`
	ProbesSkipped int `json:"probes_skipped,omitempty"`
	// Partial marks a report cut short by context cancellation; unvalidated
	// candidates carry reason "deadline".
	Partial bool `json:"partial,omitempty"`

	PerConflict []ConflictAdvice `json:"per_conflict"`
}

// Advise synthesizes, validates, and ranks repair candidates for every
// conflict of the input grammar.
func Advise(ctx context.Context, in Input, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	g := in.Grammar
	if g == nil {
		return nil, fmt.Errorf("repair: nil grammar")
	}
	compiled := in.Compiled
	if compiled == nil {
		compiled = core.Compile(lr.BuildTable(lr.Build(g)))
	}
	tbl := compiled.Table()
	res := &Result{Name: in.Name, ConflictCount: len(tbl.Conflicts), Rejected: map[string]int{}}
	if len(tbl.Conflicts) == 0 {
		return res, nil
	}

	examples := in.Examples
	if examples == nil {
		f := core.NewFinderFromCompiled(compiled, core.Options{
			PerConflictTimeout: core.NoTimeout,
			CumulativeTimeout:  core.NoTimeout,
			MaxConfigs:         opts.Budget,
			Parallelism:        opts.Parallelism,
		})
		var err error
		if examples, err = f.FindAllContext(ctx); err != nil {
			return nil, fmt.Errorf("repair: analyzing %s: %w", in.Name, err)
		}
	}

	origSrc, err := gdl.Print(g)
	if err != nil {
		return nil, fmt.Errorf("repair: grammar not expressible in GDL: %w", err)
	}
	cands := synthesize(g, tbl.A, tbl.Conflicts, examples, origSrc, opts.MaxCandidates)
	res.Candidates = len(cands)

	probes, skipped := buildProbes(g, tbl, examples)
	res.Probes, res.ProbesSkipped = len(probes), skipped
	origSigs := signatureCounts(g, tbl)

	// Validate each distinct patch once, on a bounded worker pool. The
	// work-list order, the per-patch outcome, and the final ranking are all
	// independent of scheduling.
	patchIndex := map[string]int{}
	var patches []Candidate
	budgeted := map[string]bool{}
	for _, c := range cands {
		if _, ok := patchIndex[c.Patch]; ok {
			continue
		}
		if opts.MaxPatches > 0 && len(patches) >= opts.MaxPatches {
			budgeted[c.Patch] = true
			continue
		}
		patchIndex[c.Patch] = len(patches)
		patches = append(patches, c)
	}
	res.Patches = len(patches)

	outcomes := make([]Outcome, len(patches))
	var (
		wg   sync.WaitGroup
		next = make(chan int)
	)
	workers := opts.Parallelism
	if workers > len(patches) {
		workers = len(patches)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					outcomes[i] = Outcome{Candidate: patches[i], Rejected: RejectDeadline, ConflictsBefore: len(tbl.Conflicts)}
					continue
				}
				// The span sequence is the patch's work-list index — stable
				// across worker counts like the outcomes themselves.
				_, sp := trace.StartSeq(ctx, "repair.validate", i)
				sp.Set("candidate", patches[i].ID)
				outcomes[i] = validate(patches[i], in.Name, origSigs, probes, opts)
				sp.Set("validated", outcomes[i].Validated)
				if r := outcomes[i].Rejected; r != "" {
					sp.Set("rejected", string(r))
				}
				sp.End()
			}
		}()
	}
	for i := range patches {
		next <- i
	}
	close(next)
	wg.Wait()
	if ctx.Err() != nil {
		res.Partial = true
	}

	// Attach each conflict's outcomes (sharing the validation of duplicate
	// patches) and rank.
	for ci, c := range tbl.Conflicts {
		adv := ConflictAdvice{Index: ci, State: c.State, Sym: g.Name(c.Sym), Kind: c.Kind.String()}
		if ci < len(examples) && examples[ci] != nil {
			adv.Example = examples[ci].Kind.String()
		}
		var outs []Outcome
		for _, cand := range cands {
			if cand.ConflictIndex != ci {
				continue
			}
			var o Outcome
			switch pi, ok := patchIndex[cand.Patch]; {
			case ok:
				o = outcomes[pi]
				o.Candidate = cand // keep this conflict's own id and summary
			case budgeted[cand.Patch]:
				o = Outcome{Candidate: cand, Rejected: RejectBudget, ConflictsBefore: len(tbl.Conflicts)}
			}
			outs = append(outs, o)
		}
		rank(outs)
		for _, o := range outs {
			if o.Validated {
				adv.Suggestions = append(adv.Suggestions, o)
			} else {
				adv.RejectedOutcomes = append(adv.RejectedOutcomes, o)
			}
		}
		res.PerConflict = append(res.PerConflict, adv)
	}

	// Grammar-level tallies count each distinct patch once.
	for _, o := range outcomes {
		if o.Validated {
			res.Validated++
			if o.Score > res.BestScore {
				res.BestScore = o.Score
			}
			if o.ConflictsAfter == 0 {
				res.ZeroConflict = true
			}
		} else {
			res.Rejected[o.Rejected]++
		}
	}
	for range budgeted {
		res.Rejected[RejectBudget]++
	}
	return res, nil
}

// Render prints the report as deterministic human-readable text — the form
// cexgen -repair emits and the determinism tests compare byte-for-byte.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "repair advisor: %d conflicts, %d candidates, %d patches validated, %d rejected\n",
		r.ConflictCount, r.Candidates, r.Validated, totalRejected(r.Rejected))
	if r.Partial {
		sb.WriteString("  (partial: validation cut short by deadline)\n")
	}
	for _, adv := range r.PerConflict {
		fmt.Fprintf(&sb, "\nconflict %d: %s on %s in state %d", adv.Index, adv.Kind, adv.Sym, adv.State)
		if adv.Example != "" {
			fmt.Fprintf(&sb, " (%s counterexample)", adv.Example)
		}
		sb.WriteByte('\n')
		if len(adv.Suggestions) == 0 {
			sb.WriteString("  no validated fix\n")
		}
		for i, o := range adv.Suggestions {
			fmt.Fprintf(&sb, "  #%d [%s] %s\n", i+1, o.Kind, o.Summary)
			fmt.Fprintf(&sb, "      score %+d (%d -> %d conflicts", o.Score, o.ConflictsBefore, o.ConflictsAfter)
			if o.RemainingUnifying > 0 {
				fmt.Fprintf(&sb, ", %d still ambiguous", o.RemainingUnifying)
			}
			fmt.Fprintf(&sb, "), %d/%d sentences replayed\n", o.ProbesOK, o.ProbesOK+o.ProbesSkipped)
			for _, d := range o.Directives {
				fmt.Fprintf(&sb, "      + %s\n", d)
			}
		}
		for _, o := range adv.RejectedOutcomes {
			fmt.Fprintf(&sb, "  rejected [%s] %s: %s\n", o.Kind, o.ID, o.Rejected)
		}
	}
	return sb.String()
}

func totalRejected(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// sortedRejectReasons is used by campaign reporting for stable JSON.
func sortedRejectReasons(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
