// Package cliflags is the single definition of the search-tuning flag
// surface shared by cmd/cexgen and cmd/cexeval. Both binaries register the
// same names with the same defaults and the same mapping onto core.Options,
// and the parity test in this package keeps the CLI surface aligned with the
// service's AnalyzeOptions — one tuning vocabulary everywhere: flag
// -timeout ↔ JSON per_conflict_timeout_ms, -notimeout ↔ no_timeout, and so
// on. The run's instrumentation flags (-trace-out, -cpuprofile, -memprofile)
// live here too, with the code that acts on them.
package cliflags

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/repair"
	"lrcex/internal/trace"
)

// Search holds the parsed values of the shared search flags. Fields mirror
// core.Options except that NoTimeout is a bool here (the ergonomic CLI
// spelling) and Stats is a reporting toggle the commands handle themselves.
type Search struct {
	// Timeout is the per-conflict limit for the unifying search
	// (-timeout; negative = no limit, like the paper's implementation).
	Timeout time.Duration
	// Cumulative is the total limit across all conflicts (-cumulative;
	// negative = no limit).
	Cumulative time.Duration
	// NoTimeout disables both wall-clock limits (-notimeout). Pair with
	// MaxConfigs for a deterministic budget.
	NoTimeout bool
	// Parallelism is the conflicts searched concurrently (-j; 0 =
	// GOMAXPROCS, 1 = sequential).
	Parallelism int
	// ExtendedSearch lifts the shortest-path restriction (-extendedsearch).
	ExtendedSearch bool
	// MaxConfigs bounds configurations expanded per conflict (-maxconfigs;
	// 0 = unlimited). Deterministic, unlike the wall-clock limits.
	MaxConfigs int
	// MaxArenaBytes bounds search-owned memory per conflict (-maxarena;
	// 0 = unlimited). Over budget the conflict degrades to a nonunifying
	// example. Deterministic like MaxConfigs.
	MaxArenaBytes int64
	// Stats asks the command to print search statistics (-stats).
	Stats bool
	// Faults is the fault-injection spec (-faults; also LRCEX_FAULTS).
	// Empty = injection disabled. The commands arm it via faults.EnableSpec.
	Faults string
	// Repair asks the command to run the conflict-repair advisor after the
	// counterexample reports (-repair).
	Repair bool
	// RepairBudget is the advisor's deterministic MaxConfigs budget for
	// validating candidate patches (-repair-budget; 0 = the advisor default).
	RepairBudget int
	// MaxCandidates caps the repair candidates synthesized per conflict
	// (-max-candidates; 0 = the advisor default).
	MaxCandidates int
	// TraceOut writes a span trace of the run to this file (-trace-out).
	// ".json" gets the structured span tree; anything else gets a Chrome
	// trace-event file for chrome://tracing. Empty = tracing disabled (the
	// instrumentation then costs one atomic load per site).
	TraceOut string
	// CPUProfile writes a CPU profile of the run to this file (-cpuprofile);
	// MemProfile writes a heap profile at exit (-memprofile). Empty = off.
	// StartProfiles acts on both.
	CPUProfile string
	MemProfile string
}

// RegisterSearch registers the shared search flags on fs and returns the
// struct their values land in. Call before fs.Parse.
func RegisterSearch(fs *flag.FlagSet) *Search {
	s := &Search{}
	fs.DurationVar(&s.Timeout, "timeout", 5*time.Second, "per-conflict time limit for the unifying search (negative = no limit)")
	fs.DurationVar(&s.Cumulative, "cumulative", 2*time.Minute, "cumulative time limit across all conflicts (negative = no limit)")
	fs.BoolVar(&s.NoTimeout, "notimeout", false, "disable both time limits (pair with -maxconfigs for a deterministic budget)")
	fs.IntVar(&s.Parallelism, "j", 0, "conflicts searched in parallel (0 = GOMAXPROCS, 1 = sequential)")
	fs.BoolVar(&s.ExtendedSearch, "extendedsearch", false, "search beyond the shortest lookahead-sensitive path")
	fs.IntVar(&s.MaxConfigs, "maxconfigs", 0, "configurations expanded per conflict before giving up (0 = unlimited)")
	fs.Int64Var(&s.MaxArenaBytes, "maxarena", 0, "search-owned bytes per conflict before degrading to nonunifying (0 = unlimited)")
	fs.BoolVar(&s.Stats, "stats", false, "print search statistics (expansions, dedup hits, memory)")
	fs.StringVar(&s.Faults, "faults", "", "fault-injection spec, e.g. \"seed=42;all=0.05;core.unify.expand=0.1x3\" (default: LRCEX_FAULTS)")
	fs.BoolVar(&s.Repair, "repair", false, "run the conflict-repair advisor after the counterexample reports")
	fs.IntVar(&s.RepairBudget, "repair-budget", 0, "configurations expanded when validating each repair candidate (0 = advisor default)")
	fs.IntVar(&s.MaxCandidates, "max-candidates", 0, "repair candidates synthesized per conflict (0 = advisor default)")
	fs.StringVar(&s.TraceOut, "trace-out", "", "write a span trace of the run to this file (.json = span tree, otherwise Chrome trace-event format)")
	fs.StringVar(&s.CPUProfile, "cpuprofile", "", "write a CPU profile of the run to this file")
	fs.StringVar(&s.MemProfile, "memprofile", "", "write a heap profile to this file at exit")
	return s
}

// StartProfiles begins CPU profiling into -cpuprofile (when set) and returns
// a stop func that ends the CPU profile and writes a heap profile to
// -memprofile (when set); with neither flag it is a no-op. The stop func must
// run before the process exits — defer it in main, and note that os.Exit
// skips deferred calls, so error paths that exit early produce no profile
// (the profiles of a failed run would not be meaningful anyway).
func (s *Search) StartProfiles() (stop func(), err error) {
	var cpuOut *os.File
	if s.CPUProfile != "" {
		if cpuOut, err = os.Create(s.CPUProfile); err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuOut); err != nil {
			cpuOut.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
	}
	return func() {
		if cpuOut != nil {
			pprof.StopCPUProfile()
			cpuOut.Close()
		}
		if s.MemProfile == "" {
			return
		}
		out, err := os.Create(s.MemProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
			return
		}
		defer out.Close()
		runtime.GC() // settle the live heap so the profile reflects retained memory
		if err := pprof.WriteHeapProfile(out); err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}, nil
}

// FinderOptions maps the parsed flags onto core.Options. -notimeout wins
// over explicit -timeout/-cumulative values: both limits become
// core.NoTimeout.
func (s *Search) FinderOptions() core.Options {
	o := core.Options{
		PerConflictTimeout: s.Timeout,
		CumulativeTimeout:  s.Cumulative,
		Parallelism:        s.Parallelism,
		ExtendedSearch:     s.ExtendedSearch,
		MaxConfigs:         s.MaxConfigs,
		MaxArenaBytes:      s.MaxArenaBytes,
	}
	if s.NoTimeout {
		o.PerConflictTimeout = core.NoTimeout
		o.CumulativeTimeout = core.NoTimeout
	}
	return o
}

// StartTrace arms tracing for one CLI run when -trace-out was given: it
// returns a context carrying the root span (pass it to the analysis calls)
// and a finish func that ends the trace and writes the file. With no
// -trace-out the context comes back untouched and finish is a no-op, so
// callers can wire this unconditionally. The trace ID is the run label
// (grammar or corpus name), making CLI traces self-describing.
func (s *Search) StartTrace(ctx context.Context, label string) (context.Context, func() error) {
	if s.TraceOut == "" {
		return ctx, func() error { return nil }
	}
	tracer := trace.NewTracer(1)
	ctx, root := trace.New(ctx, tracer, label, "run")
	return ctx, func() error {
		root.End()
		traces := tracer.Traces()
		var data []byte
		if strings.HasSuffix(s.TraceOut, ".json") {
			out := make([]trace.TraceJSON, 0, len(traces))
			for _, t := range traces {
				out = append(out, t.JSON())
			}
			var err error
			if data, err = json.MarshalIndent(out, "", " "); err != nil {
				return err
			}
		} else {
			data = trace.Chrome(traces)
		}
		return os.WriteFile(s.TraceOut, data, 0o644)
	}
}

// RepairOptions maps the repair flags onto the advisor's options. The
// validation pool inherits -j so the CLI's "outer" parallelism governs both
// the counterexample searches and the patch validations.
func (s *Search) RepairOptions() repair.Options {
	return repair.Options{
		Budget:        s.RepairBudget,
		MaxCandidates: s.MaxCandidates,
		Parallelism:   s.Parallelism,
	}
}
