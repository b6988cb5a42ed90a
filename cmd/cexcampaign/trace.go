package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"runtime"
	"sort"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/eval"
	"lrcex/internal/server"
	"lrcex/internal/trace"
)

// The trace campaign is the observability check: it replays the Table 1
// corpus through an in-process cexd with tracing armed and turns the span
// trees into a long-pole report (the top conflicts by search time, and the
// queue-wait vs compute breakdown of the whole replay), verifies that span
// trees are byte-identical across worker counts, and measures what tracing
// costs when it is on and when it is off.
//
// All searches run under deterministic budgets (-maxconfigs instead of the
// wall clock) so the replay, the determinism matrix, and the overhead
// numbers describe the same work every run.

// Report is the trace campaign's JSON document (BENCH_trace.json in the repo
// is a checked-in run).
type Report struct {
	Grammars   int         `json:"grammars"`
	MaxConfigs int         `json:"max_configs"`
	LongPole   LongPole    `json:"long_pole"`
	Determin   Determinism `json:"determinism"`
	Overhead   Overhead    `json:"overhead"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
}

// LongPole summarizes the traced server replay.
type LongPole struct {
	// Top holds the slowest conflicts across the whole corpus, by search
	// time within the replay.
	Top []PoleEntry `json:"top"`
	// Phase totals across all requests, in milliseconds: where the wall
	// clock of the replay actually went.
	QueueWaitMS float64 `json:"queue_wait_ms"`
	SearchMS    float64 `json:"search_ms"`
	ParseMS     float64 `json:"parse_ms"`
	TableMS     float64 `json:"table_ms"`
	RequestMS   float64 `json:"request_ms"` // sum of http.request roots
	Requests    int     `json:"requests"`
	Conflicts   int     `json:"conflicts"`
}

// PoleEntry is one slow conflict.
type PoleEntry struct {
	Grammar string  `json:"grammar"`
	State   int     `json:"state"`
	Symbol  string  `json:"symbol"`
	Kind    string  `json:"kind"`
	Outcome string  `json:"outcome"`
	MS      float64 `json:"ms"`
	TraceID string  `json:"trace_id"`
}

// Determinism records the span-tree matrix check.
type Determinism struct {
	Matrix    []string `json:"matrix"` // e.g. "j=8"
	Grammars  int      `json:"grammars_checked"`
	Identical bool     `json:"identical"`
}

// Overhead compares the traced and untraced corpus replay (sequential, best
// of -reps).
type Overhead struct {
	Reps        int     `json:"reps"`
	DisabledMS  float64 `json:"disabled_ms"`
	EnabledMS   float64 `json:"enabled_ms"`
	OverheadPct float64 `json:"overhead_pct"`
}

// prebuilt is a corpus grammar compiled once for the determinism matrix and
// the overhead arms, so only the searches run on their clocks.
type prebuilt struct {
	name     string
	compiled *core.Compiled
}

func runTrace(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	var (
		smoke      = fs.Bool("smoke", false, "sub-second self-check on figure1 only")
		out        = fs.String("out", "", "write the JSON report here (default stdout)")
		topK       = fs.Int("top", 10, "conflicts listed in the long-pole report")
		maxConfigs = fs.Int("maxconfigs", 20000, "deterministic per-conflict budget for every phase")
		reps       = fs.Int("reps", 5, "repetitions per overhead arm (per-grammar best-of)")
		workers    = fs.Int("workers", 0, "replay server worker pool (0 = GOMAXPROCS)")
	)
	fs.Parse(args)
	entries := campaignCorpus("trace", *smoke)
	if *smoke {
		*maxConfigs = 2000
		*reps = 1
	}

	rep := Report{
		Grammars:   len(entries),
		MaxConfigs: *maxConfigs,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
	}

	lp, err := replayLongPole(entries, *maxConfigs, *topK, *workers)
	if err != nil {
		log.Fatal(err)
	}
	rep.LongPole = lp

	pre := make([]prebuilt, 0, len(entries))
	for _, e := range entries {
		_, tbl, err := eval.Build(e)
		if err != nil {
			log.Fatal(err)
		}
		pre = append(pre, prebuilt{e.Name, core.Compile(tbl)})
	}
	det, diverged, err := verifyDeterminism(pre, *maxConfigs)
	if err != nil {
		log.Fatal(err)
	}
	rep.Determin = det

	rep.Overhead = measureOverhead(pre, *maxConfigs, *reps)

	log.Printf("replay: %d requests, %d conflicts; wall by phase: queue-wait %.1fms, parse %.1fms, table %.1fms, search %.1fms (requests total %.1fms)",
		lp.Requests, lp.Conflicts, lp.QueueWaitMS, lp.ParseMS, lp.TableMS, lp.SearchMS, lp.RequestMS)
	log.Printf("span trees of %d grammars across %v identical: %t; tracing overhead %+.2f%% (disabled %.1fms, enabled %.1fms, per-grammar best of %d)",
		det.Grammars, det.Matrix, det.Identical, rep.Overhead.OverheadPct, rep.Overhead.DisabledMS, rep.Overhead.EnabledMS, rep.Overhead.Reps)
	return verdict(*out, &rep, diverged)
}

// replayLongPole drives every grammar through an in-process cexd with a
// tracer attached and aggregates the span trees: per-phase totals and the
// top-k conflicts by search time.
func replayLongPole(entries []*corpus.Entry, maxConfigs, topK, workers int) (LongPole, error) {
	tracer := trace.NewTracer(len(entries) + 1)
	base, stop, err := startInProcess(server.Config{Tracer: tracer, Workers: workers})
	if err != nil {
		return LongPole{}, err
	}
	grammarOf, err := replay(base, entries, maxConfigs)
	// The middleware finishes a request's trace in a deferred root.End that
	// can run after the client already has the response, so the final trace
	// may not be in the ring yet. Shutting the server down first waits out
	// every in-flight handler; only then is the ring complete and safe to
	// aggregate.
	stop()
	if err != nil {
		return LongPole{}, err
	}

	var lp LongPole
	var poles []PoleEntry
	for _, t := range tracer.Traces() {
		tj := t.JSON()
		grammar := grammarOf[tj.TraceID]
		lp.Requests++
		for _, sp := range tj.Spans {
			ms := sp.DurUS / 1000
			switch sp.Name {
			case "http.request":
				lp.RequestMS += ms
			case "queue.wait":
				lp.QueueWaitMS += ms
			case "gdl.parse":
				lp.ParseMS += ms
			case "table.build":
				lp.TableMS += ms
			case "search":
				lp.SearchMS += ms
			case "conflict.search":
				lp.Conflicts++
				pe := PoleEntry{Grammar: grammar, MS: ms, TraceID: tj.TraceID}
				for _, a := range sp.Attrs {
					switch a.Key {
					case "state":
						pe.State, _ = a.Val.(int)
					case "symbol":
						pe.Symbol, _ = a.Val.(string)
					case "conflict":
						pe.Kind, _ = a.Val.(string)
					case "outcome":
						pe.Outcome, _ = a.Val.(string)
					}
				}
				poles = append(poles, pe)
			}
		}
	}
	sort.Slice(poles, func(i, j int) bool { return poles[i].MS > poles[j].MS })
	if len(poles) > topK {
		poles = poles[:topK]
	}
	lp.Top = poles
	return lp, nil
}

// replay sends one request per grammar and maps each response's
// X-Request-ID header, which is the trace ID, to its grammar: that is how
// conflict spans get their grammar attribution.
func replay(base string, entries []*corpus.Entry, maxConfigs int) (map[string]string, error) {
	grammarOf := make(map[string]string, len(entries))
	for _, e := range entries {
		body, err := json.Marshal(&server.AnalyzeRequest{
			Name:    e.Name,
			Grammar: e.Source,
			Options: server.AnalyzeOptions{NoTimeout: true, MaxConfigs: maxConfigs},
		})
		if err != nil {
			return nil, err
		}
		res, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", e.Name, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("replaying %s: status %d", e.Name, res.StatusCode)
		}
		grammarOf[res.Header.Get("X-Request-ID")] = e.Name
	}
	return grammarOf, nil
}

// canonicalAt runs one grammar's full search at outer parallelism j and
// returns the canonical span-tree rendering (IDs, structure, deterministic
// attributes; no timestamps).
func canonicalAt(p prebuilt, j, maxConfigs int) (string, error) {
	tracer := trace.NewTracer(1)
	ctx, root := trace.New(context.Background(), tracer, p.name, "run")
	finder := core.NewFinderFromCompiled(p.compiled, detOptions(j, maxConfigs))
	_, err := finder.FindAllContext(ctx)
	root.End()
	if err != nil {
		return "", err
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		return "", fmt.Errorf("%s: %d traces retained, want 1", p.name, len(traces))
	}
	return traces[0].Canonical(), nil
}

// verifyDeterminism checks that every grammar's span tree is byte-identical
// across the j{1,8} matrix, and names each grammar whose tree diverges.
func verifyDeterminism(pre []prebuilt, maxConfigs int) (det Determinism, diverged []string, err error) {
	cells := []int{1, 8}
	det = Determinism{Identical: true, Grammars: len(pre)}
	for _, j := range cells {
		det.Matrix = append(det.Matrix, fmt.Sprintf("j=%d", j))
	}
	for _, p := range pre {
		ref, err := canonicalAt(p, cells[0], maxConfigs)
		if err != nil {
			return det, nil, fmt.Errorf("%s: %w", p.name, err)
		}
		for _, j := range cells[1:] {
			got, err := canonicalAt(p, j, maxConfigs)
			if err != nil {
				return det, nil, fmt.Errorf("%s at j=%d: %w", p.name, j, err)
			}
			if got != ref {
				det.Identical = false
				diverged = append(diverged, fmt.Sprintf("span tree for %s diverges at j=%d", p.name, j))
			}
		}
	}
	return det, diverged, nil
}

// measureOverhead times the sequential corpus replay with tracing off and
// with tracing on (fresh tracer per rep), summing per-grammar best-of-reps
// for each arm. Grammars are precompiled so only the searches — the
// instrumented hot path — are on the clock.
func measureOverhead(pre []prebuilt, maxConfigs, reps int) Overhead {
	once := func(p prebuilt, traced bool) time.Duration {
		ctx := context.Background()
		var root *trace.Span
		if traced {
			ctx, root = trace.New(ctx, trace.NewTracer(1), p.name, "run")
		}
		finder := core.NewFinderFromCompiled(p.compiled, detOptions(1, maxConfigs))
		start := time.Now()
		if _, err := finder.FindAllContext(ctx); err != nil {
			log.Printf("overhead run %s: %v", p.name, err)
		}
		d := time.Since(start)
		root.End()
		return d
	}

	// Per grammar: one untimed warmup, then the arms interleave and each
	// keeps its best rep. Summing per-grammar minima filters scheduling
	// noise far better than timing whole-corpus passes — a stall hits one
	// rep of one grammar, not a whole arm.
	var disabled, enabled time.Duration
	for _, p := range pre {
		once(p, false)
		dBest, eBest := time.Duration(-1), time.Duration(-1)
		for r := 0; r < reps; r++ {
			if d := once(p, false); dBest < 0 || d < dBest {
				dBest = d
			}
			if d := once(p, true); eBest < 0 || d < eBest {
				eBest = d
			}
		}
		disabled += dBest
		enabled += eBest
	}
	o := Overhead{
		Reps:       reps,
		DisabledMS: float64(disabled) / float64(time.Millisecond),
		EnabledMS:  float64(enabled) / float64(time.Millisecond),
	}
	if disabled > 0 {
		o.OverheadPct = (float64(enabled) - float64(disabled)) / float64(disabled) * 100
	}
	return o
}
