package core_test

// Work pin for the unifying search's inner loop.
//
// The golden reports lock what the search outputs; this test locks how much
// work it does to get there. At a small deterministic budget (a config cap, no
// wall clock, one worker) every SearchStats total is a pure function of the
// grammar, the cost model, and the search's pop order and dedup decisions. A
// change to the admission path — the visited table, the frontier, the emit
// buffer — that claims to be "the same search, only faster" must leave every
// number below exactly as it is. A change that alters the search on purpose
// updates them and says why.

import (
	"testing"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
)

// searchWorkOpts is the pinned budget: small enough that the four long-pole
// grammars finish in a few seconds together, large enough that most of their
// conflicts reach the cap and exercise frontier growth and dedup.
func searchWorkOpts() core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         2000,
		Parallelism:        1,
	}
}

func TestSearchWorkPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-grammar long-pole searches")
	}
	want := map[string]core.SearchStats{
		"Java.2":    {Expanded: 1108131, Pushed: 2923087, DedupHits: 611619, PeakFrontier: 5857, AllocBytes: 532523568, PathExpanded: 769753},
		"Java.4":    {Expanded: 58118, Pushed: 94222, DedupHits: 18099, PeakFrontier: 5175, AllocBytes: 19032480, PathExpanded: 88047},
		"C.4":       {Expanded: 18000, Pushed: 65720, DedupHits: 11820, PeakFrontier: 8629, AllocBytes: 11902296, PathExpanded: 40020},
		"java-ext2": {Expanded: 14500, Pushed: 69580, DedupHits: 677, PeakFrontier: 8976, AllocBytes: 10521240, PathExpanded: 23685},
	}
	for _, name := range []string{"Java.2", "Java.4", "C.4", "java-ext2"} {
		t.Run(name, func(t *testing.T) {
			_, tbl := build(t, name)
			f := core.NewFinder(tbl, searchWorkOpts())
			if _, err := f.FindAll(); err != nil {
				t.Fatal(err)
			}
			got := f.Stats()
			t.Logf("%q: {Expanded: %d, Pushed: %d, DedupHits: %d, PeakFrontier: %d, AllocBytes: %d, PathExpanded: %d},",
				name, got.Expanded, got.Pushed, got.DedupHits, got.PeakFrontier, got.AllocBytes, got.PathExpanded)
			if w, ok := want[name]; ok && got != w {
				t.Errorf("search work changed:\n got %+v\nwant %+v", got, w)
			}
		})
	}
}

// TestPathWorkFloorPinned pins the path searches' work over the whole
// corpus at a one-configuration budget, where nothing but the path searches
// and the nonunifying construction runs. The shortest lookahead-sensitive
// path search runs once per grammar for all its conflicts; a regression to
// one search per conflict raises it past 17M.
func TestPathWorkFloorPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-corpus path searches")
	}
	const want = 1114479
	opts := searchWorkOpts()
	opts.MaxConfigs = 1
	var total int64
	for _, name := range corpus.Names() {
		_, tbl := build(t, name)
		f := core.NewFinder(tbl, opts)
		if _, err := f.FindAll(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		total += f.Stats().PathExpanded
	}
	if total != want {
		t.Errorf("corpus PathExpanded at MaxConfigs 1 = %d, want %d", total, want)
	}
}
