package core_test

import (
	"context"
	"errors"
	"sync"
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

// TestConcurrentFindContextSharesPaths: eight goroutines calling FindContext
// on distinct conflicts of one fresh Finder race to run its one
// shortest-path search. The answers must match FindAll's, and the path work
// must match a sequential run's, so the search ran exactly once. A first
// caller whose context is already cancelled gets its error and leaves
// nothing memoized for the next caller.
func TestConcurrentFindContextSharesPaths(t *testing.T) {
	_, tbl := build(t, "Java.4")
	opts := core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         2000,
		Parallelism:        1,
	}
	seq := core.NewFinder(tbl, opts)
	exs, err := seq.FindAll()
	if err != nil {
		t.Fatal(err)
	}
	ref := core.CanonicalReport(tbl.A, exs)

	// findEach searches every conflict with FindContext from 8 goroutines,
	// goroutine w taking conflicts w, w+8, ...
	findEach := func(f *core.Finder) string {
		const workers = 8
		got := make([]*core.Example, len(tbl.Conflicts))
		errs := make([]error, len(tbl.Conflicts))
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < len(tbl.Conflicts); i += workers {
					got[i], errs[i] = f.FindContext(context.Background(), tbl.Conflicts[i])
				}
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("conflict %d: %v", i, err)
			}
		}
		return core.CanonicalReport(tbl.A, got)
	}

	shared := core.NewFinder(tbl, opts)
	if got := findEach(shared); got != ref {
		t.Errorf("concurrent FindContext report differs from FindAll's:\n%s\nvs\n%s", got, ref)
	}
	if got, want := shared.Stats().PathExpanded, seq.Stats().PathExpanded; got != want {
		t.Errorf("concurrent PathExpanded = %d, sequential %d: the shared path search did not run exactly once", got, want)
	}

	cancelled := core.NewFinder(tbl, opts)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := cancelled.FindContext(ctx, tbl.Conflicts[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("FindContext under a cancelled context: err = %v, want context.Canceled", err)
	}
	if got := findEach(cancelled); got != ref {
		t.Errorf("report after a cancelled first call differs from FindAll's:\n%s\nvs\n%s", got, ref)
	}
	if got, want := cancelled.Stats().PathExpanded, seq.Stats().PathExpanded; got != want {
		t.Errorf("PathExpanded after a cancelled first call = %d, sequential %d", got, want)
	}
}
