package core_test

import (
	"context"
	"strings"
	"testing"

	"lrcex/internal/core"
	"lrcex/internal/faults"
	"lrcex/internal/trace"
)

// The trace determinism suite: the canonical span tree of a whole-grammar
// analysis — span names, IDs, sequence numbers, and deterministic attributes
// (conflict coordinates, outcome kinds) — must be byte-identical across every
// worker configuration, because span IDs derive from the trace ID and the
// conflict's table position, never from scheduling. Volatile attributes
// (wall-clock, expansion counters, time-bank draws) are excluded from the
// canonical form by construction.

// traceOpts is the deterministic option set at outer parallelism j: no
// wall-clock limits, and a configuration budget small enough that the suite
// stays fast under -race.
func traceOpts(j int) core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         20000,
		Parallelism:        j,
	}
}

// tracedCanonical runs FindAllContext under a fresh trace with a fixed trace
// ID and returns the canonical span tree.
func tracedCanonical(t *testing.T, name string, opts core.Options) string {
	t.Helper()
	_, tbl := build(t, name)
	tracer := trace.NewTracer(1)
	ctx, root := trace.New(context.Background(), tracer, "determinism", "findall")
	if _, err := core.NewFinder(tbl, opts).FindAllContext(ctx); err != nil {
		t.Fatal(err)
	}
	root.End()
	traces := tracer.Traces()
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	return traces[0].Canonical()
}

// TestTraceDeterminismMatrix: the span tree at j=8 matches the sequential
// (j=1) reference byte for byte. Deterministic budgets (NoTimeout +
// MaxConfigs) make the underlying reports identical, so the deterministic
// span attributes (outcome kinds included) must match too.
func TestTraceDeterminismMatrix(t *testing.T) {
	ref := tracedCanonical(t, "C.4", traceOpts(1))
	if !strings.Contains(ref, "conflict.search#") {
		t.Fatalf("reference trace has no conflict spans:\n%s", ref)
	}
	if strings.Count(ref, "search.lasp#") != 1 {
		t.Fatalf("reference trace does not have exactly one shared path-search span:\n%s", ref)
	}
	if got := tracedCanonical(t, "C.4", traceOpts(8)); got != ref {
		t.Errorf("span tree at j=8 diverged from sequential reference:\n%s\nvs\n%s", got, ref)
	}
}

// TestTraceDeterminismUnderFaults: an armed fault schedule replayed with the
// same seed produces the same span tree, recovery spans included. Faults are
// counter-indexed per point, so the runs must be sequential (j=1) for the
// firing-to-conflict assignment to be reproducible — which is exactly
// how a chaos investigation replays a failure.
func TestTraceDeterminismUnderFaults(t *testing.T) {
	opts := traceOpts(1)
	opts.MaxConfigs = 2000
	cfg := faults.Config{
		Seed:  42,
		Rates: map[faults.Point]faults.Rate{faults.CoreUnifyExpand: {Prob: 1, Max: 2}},
	}
	defer faults.Disable()

	run := func() string {
		faults.Enable(cfg) // resets firing counters: an exact replay
		return tracedCanonical(t, "C.4", opts)
	}
	first := run()
	if !strings.Contains(first, "conflict.recover#") {
		t.Fatalf("armed schedule produced no recovery spans:\n%s", first)
	}
	if !strings.Contains(first, "outcome=nonunifying (recovered)") {
		t.Fatalf("recovered conflicts not stamped on their spans:\n%s", first)
	}
	for i := 0; i < 3; i++ {
		if got := run(); got != first {
			t.Fatalf("replayed fault schedule diverged on run %d:\n%s\nvs\n%s", i+2, got, first)
		}
	}
}
