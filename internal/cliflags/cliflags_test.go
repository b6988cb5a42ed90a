package cliflags

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/server"
)

// flagSurface captures everything user-visible about a registered flag set.
func flagSurface(fs *flag.FlagSet) map[string][2]string {
	out := make(map[string][2]string)
	fs.VisitAll(func(f *flag.Flag) {
		out[f.Name] = [2]string{f.DefValue, f.Usage}
	})
	return out
}

// TestParityAcrossRegistrations checks that every registration produces the
// identical flag surface — the property that keeps cexgen and cexeval
// uniform, since both call the same registrar.
func TestParityAcrossRegistrations(t *testing.T) {
	a := flag.NewFlagSet("cexgen", flag.ContinueOnError)
	b := flag.NewFlagSet("cexeval", flag.ContinueOnError)
	RegisterSearch(a)
	RegisterSearch(b)
	sa, sb := flagSurface(a), flagSurface(b)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("flag surfaces differ:\n%v\n%v", sa, sb)
	}
	want := []string{"timeout", "cumulative", "notimeout", "j", "extendedsearch", "maxconfigs", "maxarena", "stats", "faults", "repair", "repair-budget", "max-candidates", "trace-out", "cpuprofile", "memprofile"}
	for _, name := range want {
		if _, ok := sa[name]; !ok {
			t.Errorf("flag -%s not registered", name)
		}
	}
	if len(sa) != len(want) {
		t.Errorf("registered %d flags, want %d: %v", len(sa), len(want), sa)
	}
}

// TestParityWithAnalyzeOptions checks that the CLI flag surface and the
// service's AnalyzeOptions expose the same search-tuning vocabulary: every
// search knob reachable over HTTP is reachable from the command line, and
// vice versa.
func TestParityWithAnalyzeOptions(t *testing.T) {
	// flag name -> AnalyzeOptions JSON field carrying the same knob.
	pairs := map[string]string{
		"timeout":        "per_conflict_timeout_ms",
		"cumulative":     "cumulative_timeout_ms",
		"notimeout":      "no_timeout",
		"j":              "parallelism",
		"extendedsearch": "extended_search",
		"maxconfigs":     "max_configs",
		"maxarena":       "max_arena_bytes",
	}

	jsonFields := make(map[string]bool)
	rt := reflect.TypeOf(server.AnalyzeOptions{})
	for i := 0; i < rt.NumField(); i++ {
		tag := strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]
		if tag != "" && tag != "-" {
			jsonFields[tag] = true
		}
	}

	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	RegisterSearch(fs)
	flags := flagSurface(fs)

	for flagName, jsonName := range pairs {
		if _, ok := flags[flagName]; !ok {
			t.Errorf("flag -%s missing from RegisterSearch", flagName)
		}
		if !jsonFields[jsonName] {
			t.Errorf("AnalyzeOptions has no %q field to pair with -%s", jsonName, flagName)
		}
		delete(jsonFields, jsonName)
	}
	// Whatever remains in AnalyzeOptions must be service-only plumbing, not
	// a search knob the CLI silently lacks.
	serviceOnly := map[string]bool{"deadline_ms": true, "kinds": true}
	for leftover := range jsonFields {
		if !serviceOnly[leftover] {
			t.Errorf("AnalyzeOptions.%s has no CLI flag; add it to cliflags or to the service-only list", leftover)
		}
	}
}

// TestParityWithRepairOptions checks that the repair tuning knobs reachable
// over HTTP (server.RepairOptions JSON fields) are exactly the ones the CLI
// exposes as -repair-budget and -max-candidates: one repair vocabulary on
// both surfaces, like the search knobs above.
func TestParityWithRepairOptions(t *testing.T) {
	pairs := map[string]string{
		"repair-budget":  "repair_budget",
		"max-candidates": "max_candidates",
	}

	jsonFields := make(map[string]bool)
	rt := reflect.TypeOf(server.RepairOptions{})
	for i := 0; i < rt.NumField(); i++ {
		tag := strings.Split(rt.Field(i).Tag.Get("json"), ",")[0]
		if tag != "" && tag != "-" {
			jsonFields[tag] = true
		}
	}

	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	RegisterSearch(fs)
	flags := flagSurface(fs)

	for flagName, jsonName := range pairs {
		if _, ok := flags[flagName]; !ok {
			t.Errorf("flag -%s missing from RegisterSearch", flagName)
		}
		if !jsonFields[jsonName] {
			t.Errorf("RepairOptions has no %q field to pair with -%s", jsonName, flagName)
		}
		delete(jsonFields, jsonName)
	}
	for leftover := range jsonFields {
		t.Errorf("RepairOptions.%s has no CLI flag; add it to cliflags or pair it above", leftover)
	}
	// -repair itself is the CLI's endpoint toggle (HTTP selects it by URL),
	// so it pairs with no JSON field but must exist.
	if _, ok := flags["repair"]; !ok {
		t.Errorf("flag -repair missing from RegisterSearch")
	}
}

// TestRepairOptionsMapping checks the flag → repair.Options translation,
// including -j flowing into the advisor's validation pool.
func TestRepairOptionsMapping(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	s := RegisterSearch(fs)
	if err := fs.Parse([]string{"-repair", "-repair-budget", "750", "-max-candidates", "3", "-j", "4"}); err != nil {
		t.Fatal(err)
	}
	if !s.Repair {
		t.Fatal("-repair did not set Search.Repair")
	}
	got := s.RepairOptions()
	if got.Budget != 750 || got.MaxCandidates != 3 || got.Parallelism != 4 {
		t.Fatalf("RepairOptions() = %+v, want Budget 750, MaxCandidates 3, Parallelism 4", got)
	}
}

// TestFinderOptionsMapping checks the flag → core.Options translation,
// especially -notimeout overriding both limits.
func TestFinderOptionsMapping(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	s := RegisterSearch(fs)
	if err := fs.Parse([]string{"-timeout", "7s", "-cumulative", "3m", "-j", "3", "-extendedsearch", "-maxconfigs", "123", "-maxarena", "4096"}); err != nil {
		t.Fatal(err)
	}
	got := s.FinderOptions()
	want := core.Options{
		PerConflictTimeout: 7 * time.Second,
		CumulativeTimeout:  3 * time.Minute,
		Parallelism:        3,
		ExtendedSearch:     true,
		MaxConfigs:         123,
		MaxArenaBytes:      4096,
	}
	if got != want {
		t.Fatalf("FinderOptions() = %+v, want %+v", got, want)
	}

	fs2 := flag.NewFlagSet("x", flag.ContinueOnError)
	s2 := RegisterSearch(fs2)
	if err := fs2.Parse([]string{"-timeout", "9s", "-notimeout"}); err != nil {
		t.Fatal(err)
	}
	o := s2.FinderOptions()
	if o.PerConflictTimeout != core.NoTimeout || o.CumulativeTimeout != core.NoTimeout {
		t.Fatalf("-notimeout did not disable both limits: %+v", o)
	}
}

// TestDefaultsMatchPaper pins the documented defaults (5s per conflict, 2m
// cumulative) so a refactor cannot silently drift them.
func TestDefaultsMatchPaper(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	s := RegisterSearch(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if s.Timeout != 5*time.Second || s.Cumulative != 2*time.Minute {
		t.Fatalf("defaults = (%v, %v), want (5s, 2m)", s.Timeout, s.Cumulative)
	}
	if s.NoTimeout || s.ExtendedSearch || s.Stats || s.MaxConfigs != 0 || s.Parallelism != 0 ||
		s.MaxArenaBytes != 0 || s.Faults != "" ||
		s.Repair || s.RepairBudget != 0 || s.MaxCandidates != 0 || s.TraceOut != "" {
		t.Fatalf("non-zero default in %+v", s)
	}
}
