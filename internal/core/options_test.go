package core_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
)

// TestNoTimeoutExhaustsSearch checks the NoTimeout sentinel end to end: with
// both limits disabled on an unambiguous grammar the restricted unifying
// search must run to exhaustion — never a timeout classification — for every
// conflict.
func TestNoTimeoutExhaustsSearch(t *testing.T) {
	_, tbl := build(t, "figure3")
	f := core.NewFinder(tbl, core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
	})
	exs, err := f.FindAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) == 0 {
		t.Fatal("figure3 has no conflicts")
	}
	for _, ex := range exs {
		if ex.Kind != core.NonunifyingExhausted {
			t.Errorf("state %d: kind = %v, want nonunifying (exhausted)", ex.Conflict.State, ex.Kind)
		}
	}
}

// TestCumulativeBudgetSkipsRemainder drains the cumulative time-bank on the
// first conflict: with a 1 ns budget the first conflict is still attempted
// (the bank is checked before the search, and 1 ns > 0), but its charge
// overdraws the bank, so every later conflict must take the
// NonunifyingSkipped path — and still carry a usable nonunifying
// counterexample, exactly like Table 1's parenthesized conflicts.
func TestCumulativeBudgetSkipsRemainder(t *testing.T) {
	_, tbl := build(t, "figure1")
	if len(tbl.Conflicts) < 2 {
		t.Fatalf("need at least 2 conflicts, figure1 has %d", len(tbl.Conflicts))
	}
	f := core.NewFinder(tbl, core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  time.Nanosecond,
		Parallelism:        1, // sequential: the drain order is then certain
	})
	exs, err := f.FindAll()
	if err != nil {
		t.Fatal(err)
	}
	if exs[0].Kind == core.NonunifyingSkipped {
		t.Errorf("first conflict skipped; the bank must admit the first search")
	}
	for _, ex := range exs[1:] {
		if ex.Kind != core.NonunifyingSkipped {
			t.Errorf("state %d under %s: kind = %v, want nonunifying (skipped)",
				ex.Conflict.State, tbl.A.G.Name(ex.Conflict.Sym), ex.Kind)
		}
		if len(ex.Prefix)+len(ex.After1) == 0 && ex.Conflict.Sym != grammar.EOF {
			t.Errorf("state %d: skipped conflict has an empty nonunifying counterexample",
				ex.Conflict.State)
		}
	}
}

// TestMaxConfigsExactBoundary pins the configuration cap's off-by-one
// contract: MaxConfigs = N admits exactly N expansions, so a search that wins
// on its N-th expansion still wins under MaxConfigs = N and degrades to a
// nonunifying (timeout) outcome under MaxConfigs = N-1. The probe conflict is
// figure1's "+" shift-reduce (Figure 11), whose unifying example is found
// within a handful of expansions.
func TestMaxConfigsExactBoundary(t *testing.T) {
	g, tbl := build(t, "figure1")
	var conflict lr.Conflict
	found := false
	for _, c := range tbl.Conflicts {
		if g.Name(c.Sym) == "+" {
			conflict, found = c, true
			break
		}
	}
	if !found {
		t.Fatal("no conflict under + in figure1")
	}

	deterministic := func(maxConfigs int) *core.Example {
		f := core.NewFinder(tbl, core.Options{
			PerConflictTimeout: core.NoTimeout,
			CumulativeTimeout:  core.NoTimeout,
			MaxConfigs:         maxConfigs,
		})
		ex, err := f.Find(conflict)
		if err != nil {
			t.Fatalf("Find(MaxConfigs=%d): %v", maxConfigs, err)
		}
		return ex
	}

	free := deterministic(0) // unlimited
	if free.Kind != core.Unifying {
		t.Fatalf("uncapped search: kind = %v, want unifying", free.Kind)
	}
	n := free.Expanded
	if n < 2 {
		t.Fatalf("uncapped search expanded only %d configurations; boundary test needs >= 2", n)
	}

	exact := deterministic(n)
	if exact.Kind != core.Unifying {
		t.Errorf("MaxConfigs=%d (exact): kind = %v, want unifying", n, exact.Kind)
	}
	if exact.Expanded != n {
		t.Errorf("MaxConfigs=%d: expanded %d configurations, want %d (determinism)", n, exact.Expanded, n)
	}

	under := deterministic(n - 1)
	if under.Kind != core.NonunifyingTimeout {
		t.Errorf("MaxConfigs=%d (one short): kind = %v, want nonunifying (timeout)", n-1, under.Kind)
	}
	if under.Expanded > n-1 {
		t.Errorf("MaxConfigs=%d: expanded %d configurations, cap not honored", n-1, under.Expanded)
	}
}

// TestFindAllContextCancelled checks caller-cancellation semantics on both
// the sequential and the pooled path: a pre-cancelled context returns
// context.Canceled (never a fabricated counterexample) and an
// examples-so-far prefix, which for an immediate cancellation is empty.
func TestFindAllContextCancelled(t *testing.T) {
	_, tbl := build(t, "figure1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, parallelism := range []int{1, 4} {
		f := core.NewFinder(tbl, core.Options{Parallelism: parallelism})
		exs, err := f.FindAllContext(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Parallelism=%d: err = %v, want context.Canceled", parallelism, err)
		}
		if len(exs) != 0 {
			t.Errorf("Parallelism=%d: %d examples from a pre-cancelled context, want 0", parallelism, len(exs))
		}
	}
}

// TestFindContextCancelled covers the single-conflict entry point.
func TestFindContextCancelled(t *testing.T) {
	_, tbl := build(t, "figure1")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := core.NewFinder(tbl, core.Options{})
	if _, err := f.FindContext(ctx, tbl.Conflicts[0]); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestZeroPerConflictTimeoutMeansDefault guards the sentinel split: a zero
// PerConflictTimeout must select the paper's 5 s default — not an instant
// deadline — so a trivially findable unifying example is still found.
func TestZeroPerConflictTimeoutMeansDefault(t *testing.T) {
	_, tbl := build(t, "figure1")
	f := core.NewFinder(tbl, core.Options{}) // all zero: paper defaults
	exs, err := f.FindAll()
	if err != nil {
		t.Fatal(err)
	}
	unif := 0
	for _, ex := range exs {
		if ex.Kind == core.Unifying {
			unif++
		}
		if ex.Kind == core.NonunifyingSkipped {
			t.Errorf("state %d skipped under the default 2 min budget", ex.Conflict.State)
		}
	}
	if unif == 0 {
		t.Error("zero-value options found no unifying example on figure1; default timeout misapplied?")
	}
}

// TestNonMonotoneCostModelCompletes: a hand-built cost model with a negative
// increment (withDefaults keeps explicit negatives) breaks the frontier's
// monotone cost order, but the search must still run to completion under a
// MaxConfigs budget — an answer for every conflict, no error, no hang.
func TestNonMonotoneCostModelCompletes(t *testing.T) {
	_, tbl := build(t, "figure1")
	exs, err := core.NewFinder(tbl, core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         20000,
		Parallelism:        1,
		Costs:              core.CostModel{Shift: -1},
	}).FindAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(exs) != len(tbl.Conflicts) {
		t.Fatalf("%d examples for %d conflicts", len(exs), len(tbl.Conflicts))
	}
}
