package core_test

import (
	"testing"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/gdl"
	"lrcex/internal/lr"
)

// TestParallelDeterminism is the schedule-independence regression test: with
// deterministic budgets (NoTimeout + MaxConfigs) the canonical report of a
// Parallelism:8 FindAll must be byte-identical across repeated runs, and to
// the sequential (Parallelism:1) report. The grammars cover the paper's two
// signature conflicts — figure1 contains both the dangling-else conflict
// (Figure 5) and the challenging conflict of Section 3.1 (Figure 9) — plus
// stackovf05, the corpus dangling-else grammar whose conflict is
// reduce-reduce, and Java.4, where equal-cost ties decide a witness and the
// per-worker visited tables start at sizes that depend on which conflicts
// each worker searched before — neither may ever change an answer.
func TestParallelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name       string
		maxConfigs int
		runs       int
	}{
		{"figure1", 200000, 20},
		{"stackovf05", 200000, 20},
		{"Java.4", 20000, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, ok := corpus.Get(tc.name)
			if !ok {
				t.Fatalf("corpus grammar %q not found", tc.name)
			}
			g, err := gdl.Parse(e.Name, e.Source)
			if err != nil {
				t.Fatal(err)
			}
			tbl := lr.BuildTable(lr.Build(g))
			if len(tbl.Conflicts) == 0 {
				t.Fatalf("%s: no conflicts to search", tc.name)
			}
			report := func(j int) string {
				exs, err := core.NewFinder(tbl, core.Options{
					PerConflictTimeout: core.NoTimeout,
					CumulativeTimeout:  core.NoTimeout,
					MaxConfigs:         tc.maxConfigs,
					Parallelism:        j,
				}).FindAll()
				if err != nil {
					t.Fatalf("j=%d: %v", j, err)
				}
				return core.CanonicalReport(tbl.A, exs)
			}
			ref := report(1)
			for run := 0; run < tc.runs; run++ {
				if got := report(8); got != ref {
					t.Fatalf("run %d: j=8 report differs from j=1:\n--- j=1 ---\n%s\n--- j=8 ---\n%s",
						run, ref, got)
				}
			}
		})
	}
}
