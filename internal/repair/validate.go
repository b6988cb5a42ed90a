package repair

import (
	"errors"
	"fmt"
	"sort"

	"lrcex/internal/core"
	"lrcex/internal/engine"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// Rejection reasons attached to Outcome.Rejected.
const (
	RejectCompile  = "compile-error"
	RejectWorse    = "no-improvement"
	RejectBreaking = "language-breaking"
	RejectBudget   = "patch-budget"
	RejectDeadline = "deadline"
)

// probe is one sentence the original counterexamples prove to be in the
// language: a terminal string (by name, so it transfers across grammars)
// together with the nonterminal it derives from. Every surviving candidate
// must keep every probe parseable.
type probe struct {
	Start string   `json:"start"`
	Words []string `json:"words"`
	From  string   `json:"from"` // which counterexample produced it
}

// buildProbes concretizes the counterexample sentences and calibrates each
// against the ORIGINAL grammar's resolved parser (engine.NewReplay): a
// sentence the original parser cannot parse (or cannot judge within the fork
// budget) is no evidence about the repaired language and is dropped, counted
// in skipped — the same counted-never-silent discipline the metamorphic
// oracles use.
func buildProbes(g *grammar.Grammar, tbl *lr.Table, examples []*core.Example) (probes []probe, skipped int) {
	oracle := engine.NewOracle(g, tbl)
	parses := func(start grammar.Sym, syms []grammar.Sym) (words []string, ok bool) {
		concrete, ok := engine.Concretize(g, syms)
		if !ok {
			return nil, false
		}
		if accepted, err := oracle.Accepts(start, concrete); err != nil || !accepted {
			return nil, false
		}
		words = make([]string, len(concrete))
		for i, s := range concrete {
			words[i] = g.Name(s)
		}
		return words, true
	}
	add := func(start grammar.Sym, syms []grammar.Sym, from string) {
		clean := syms[:0:0]
		for _, s := range syms {
			if s != grammar.EOF {
				clean = append(clean, s)
			}
		}
		if words, ok := parses(start, clean); ok {
			probes = append(probes, probe{Start: g.Name(start), Words: words, From: from})
		} else {
			skipped++
		}
	}
	for ci, ex := range examples {
		if ex == nil {
			continue
		}
		if ex.Kind.IsUnifying() {
			add(ex.Nonterminal, ex.Syms, fmt.Sprintf("c%d.unifying", ci))
			continue
		}
		start := g.StartSym()
		add(start, append(append([]grammar.Sym(nil), ex.Prefix...), ex.After1...), fmt.Sprintf("c%d.nonunifying.1", ci))
		add(start, append(append([]grammar.Sym(nil), ex.Prefix...), ex.After2...), fmt.Sprintf("c%d.nonunifying.2", ci))
	}
	return probes, skipped
}

// Outcome is a Candidate plus its validation verdict.
type Outcome struct {
	Candidate
	// Validated is true when the candidate compiled, improved the conflict
	// count, and kept every probe sentence parseable.
	Validated bool `json:"validated"`
	// Rejected carries the rejection reason when Validated is false.
	Rejected string `json:"rejected,omitempty"`
	// Error carries the compile error for RejectCompile outcomes.
	Error string `json:"error,omitempty"`
	// Conflict accounting: totals before/after, and the signature-matched
	// split of the delta (a rewrite can eliminate one conflict and introduce
	// another; the score nets them).
	ConflictsBefore int `json:"conflicts_before"`
	ConflictsAfter  int `json:"conflicts_after"`
	Eliminated      int `json:"eliminated"`
	Introduced      int `json:"introduced"`
	// Score is Eliminated - Introduced (== ConflictsBefore - ConflictsAfter).
	Score int `json:"score"`
	// ResolvedAfter counts conflicts the patched precedence table resolves
	// silently (the yacc path) in the repaired grammar.
	ResolvedAfter int `json:"resolved_after"`
	// RemainingUnifying counts remaining conflicts the bounded re-analysis
	// still proves ambiguous.
	RemainingUnifying int `json:"remaining_unifying,omitempty"`
	// Probe replay tally: OK + Skipped + Broken == Total.
	ProbesOK      int `json:"probes_ok"`
	ProbesSkipped int `json:"probes_skipped,omitempty"`
	ProbesBroken  int `json:"probes_broken,omitempty"`
}

// conflictSignature names a conflict independently of state numbering so
// eliminated/introduced survive the automaton renumbering a patch causes.
func conflictSignature(g *grammar.Grammar, a *lr.Automaton, c lr.Conflict) string {
	p1 := g.ProdString(a.Prod(c.Item1))
	p2 := g.ProdString(a.Prod(c.Item2))
	if c.Kind == lr.ReduceReduce && p2 < p1 {
		p1, p2 = p2, p1
	}
	return fmt.Sprintf("%v|%s|%s|%s", c.Kind, g.Name(c.Sym), p1, p2)
}

func signatureCounts(g *grammar.Grammar, tbl *lr.Table) map[string]int {
	out := make(map[string]int, len(tbl.Conflicts))
	for _, c := range tbl.Conflicts {
		out[conflictSignature(g, tbl.A, c)]++
	}
	return out
}

// validate recompiles one candidate patch and scores it. It is a pure
// function of (candidate, original analysis, options) — no wall-clock
// budgets are consulted — so outcomes are identical at any parallelism.
func validate(cand Candidate, name string, origSigs map[string]int, probes []probe, opts Options) Outcome {
	out := Outcome{Candidate: cand, ConflictsBefore: total(origSigs)}
	g2, c2, err := opts.Compile(fmt.Sprintf("%s+%s", name, cand.ID), cand.Patch)
	if err != nil {
		out.Rejected, out.Error = RejectCompile, err.Error()
		return out
	}
	tbl := c2.Table()
	newSigs := signatureCounts(g2, tbl)
	out.ConflictsAfter = total(newSigs)
	out.ResolvedAfter = len(tbl.Resolved)
	for sig, n := range origSigs {
		if d := n - newSigs[sig]; d > 0 {
			out.Eliminated += d
		}
	}
	for sig, n := range newSigs {
		if d := n - origSigs[sig]; d > 0 {
			out.Introduced += d
		}
	}
	out.Score = out.Eliminated - out.Introduced
	if out.Score <= 0 {
		out.Rejected = RejectWorse
		return out
	}

	// Language replay: every calibrated probe must still parse under the
	// repaired grammar's RESOLVED parser (engine.NewReplay — remaining
	// unresolved conflicts fork, resolutions and %nonassoc error entries
	// bind). Fork-limit verdicts are skips, never silent passes.
	oracle := engine.NewOracle(g2, tbl)
	for _, pr := range probes {
		start, ok := g2.Lookup(pr.Start)
		syms := make([]grammar.Sym, len(pr.Words))
		for i := 0; ok && i < len(syms); i++ {
			syms[i], ok = g2.Lookup(pr.Words[i])
		}
		if !ok {
			out.ProbesBroken++
			continue
		}
		accepted, err := oracle.Accepts(start, syms)
		switch {
		case errors.Is(err, engine.ErrForkLimit):
			out.ProbesSkipped++
		case err != nil || !accepted:
			out.ProbesBroken++
		default:
			out.ProbesOK++
		}
	}
	if out.ProbesBroken > 0 {
		out.Rejected = RejectBreaking
		return out
	}

	// Bounded re-analysis of whatever conflicts remain: NoTimeout +
	// MaxConfigs keeps the outcome a pure function of the grammar.
	if out.ConflictsAfter > 0 {
		f := core.NewFinderFromCompiled(c2, core.Options{
			PerConflictTimeout: core.NoTimeout,
			CumulativeTimeout:  core.NoTimeout,
			MaxConfigs:         opts.Budget,
			Parallelism:        1,
		})
		if exs, err := f.FindAll(); err == nil {
			for _, ex := range exs {
				if ex.Kind.IsUnifying() {
					out.RemainingUnifying++
				}
			}
		}
	}
	out.Validated = true
	return out
}

func total(sigs map[string]int) int {
	n := 0
	for _, c := range sigs {
		n += c
	}
	return n
}

// rank orders a conflict's outcomes deterministically: validated candidates
// first by descending score, then fewer remaining ambiguities, then the
// kind-preference order, then the shorter and lexicographically smaller
// patch. The sort consults no indices or timings, so the ranking is
// byte-identical however the validations were scheduled.
func rank(outs []Outcome) {
	sort.SliceStable(outs, func(i, j int) bool {
		a, b := outs[i], outs[j]
		if a.Validated != b.Validated {
			return a.Validated
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		if a.RemainingUnifying != b.RemainingUnifying {
			return a.RemainingUnifying < b.RemainingUnifying
		}
		if ka, kb := kindRank(a.Kind), kindRank(b.Kind); ka != kb {
			return ka < kb
		}
		if len(a.Patch) != len(b.Patch) {
			return len(a.Patch) < len(b.Patch)
		}
		return a.Patch < b.Patch
	})
}
