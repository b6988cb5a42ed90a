package lrcex

import (
	"testing"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/lr"
)

// sliceBaselineAllocs is the allocs/op of the pre-rewrite slice-copying
// search core on the dangling-else conflict (the BenchmarkUnifyAllocs
// scenario), recorded at the seed commit on the reference machine. The
// zero-copy core — persistent cons-deque sides, hashed dedup, arena-backed
// configurations — must stay at least allocsImprovementFloor times below it.
const (
	sliceBaselineAllocs    = 705
	allocsImprovementFloor = 5
)

// buildAllocsCeiling bounds the allocs/op of lr.Build + lr.BuildTable on
// Java.2. The textbook construction (a map-backed LR(1) closure per kernel
// item, a fresh set per FollowL call, a map from item to index per state)
// measured 178,708 allocs/op; the dense construction measures 7,648. The
// ceiling catches a return of per-item allocation while leaving room for
// small additions.
const buildAllocsCeiling = 60000

// TestBuildAllocsPinned guards the allocation profile of the LALR(1) front
// end. Skipped under -short: testing.Benchmark builds the automaton
// repeatedly to stabilize the measurement.
func TestBuildAllocsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin skipped in -short mode")
	}
	e, ok := corpus.Get("Java.2")
	if !ok {
		t.Fatal("corpus grammar Java.2 not found")
	}
	g := e.Grammar()
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lr.BuildTable(lr.Build(g))
		}
	})
	allocs := r.AllocsPerOp()
	t.Logf("Java.2 lr.Build+BuildTable: %d allocs/op, %d B/op (ceiling %d)",
		allocs, r.AllocedBytesPerOp(), buildAllocsCeiling)
	if allocs > buildAllocsCeiling {
		t.Errorf("allocs/op = %d exceeds the ceiling %d", allocs, buildAllocsCeiling)
	}
}

// TestUnifyAllocsRegression is the hard allocation-regression guard promised
// by BenchmarkUnifyAllocs' doc comment: it runs the benchmark body under
// testing.Benchmark and fails if allocs/op creeps back above baseline/5.
// (The rewrite landed at ~78 allocs/op — a 9× reduction — so the 5× floor
// leaves headroom for legitimate small additions while catching any return
// of per-successor copying.) Skipped under -short: testing.Benchmark runs
// the search repeatedly to stabilize the measurement.
func TestUnifyAllocsRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation regression guard skipped in -short mode")
	}
	e, ok := corpus.Get("figure1")
	if !ok {
		t.Fatal("corpus grammar figure1 not found")
	}
	g, err := ParseGrammar(e.Name, e.Source)
	if err != nil {
		t.Fatal(err)
	}
	res := AnalyzeWithOptions(g, unifyAllocsOpts())
	var conflict Conflict
	found := false
	for _, c := range res.Conflicts() {
		if g.Name(c.Sym) == "else" {
			conflict, found = c, true
			break
		}
	}
	if !found {
		t.Fatal("figure1 has no conflict under 'else'")
	}

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ex, err := res.Find(conflict)
			if err != nil || ex.Kind != core.Unifying {
				b.Fatalf("expected unifying result, got %v (%v)", ex.Kind, err)
			}
		}
	})
	allocs := r.AllocsPerOp()
	limit := int64(sliceBaselineAllocs / allocsImprovementFloor)
	t.Logf("unifying search: %d allocs/op, %d B/op (slice baseline %d allocs/op, limit %d)",
		allocs, r.AllocedBytesPerOp(), sliceBaselineAllocs, limit)
	if allocs > limit {
		t.Errorf("allocs/op = %d exceeds the regression limit %d (= slice baseline %d / %d)",
			allocs, limit, sliceBaselineAllocs, allocsImprovementFloor)
	}
}
