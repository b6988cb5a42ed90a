// Command cextrace is the observability harness: it replays the Table 1
// corpus through an in-process cexd with tracing armed and turns the span
// trees into a long-pole report (the top conflicts by search time, and the
// queue-wait vs compute breakdown of the whole replay), verifies that span
// trees are byte-identical across worker counts, and measures what tracing
// costs when it is on and when it is off.
//
// Usage:
//
//	cextrace                      # full corpus, print the report
//	cextrace -out BENCH_trace.json
//	cextrace -smoke               # figure1 only, sub-second, exercised by verify.sh
//
// All searches run under deterministic budgets (-maxconfigs instead of the
// wall clock) so the replay, the determinism matrix, and the overhead
// numbers describe the same work every run.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/eval"
	"lrcex/internal/server"
	"lrcex/internal/trace"
)

// Report is the JSON document cextrace emits (-out; BENCH_trace.json in the
// repo is a checked-in run).
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

func main() {
	var (
		smoke      = flag.Bool("smoke", false, "sub-second self-check on figure1 only")
		out        = flag.String("out", "", "write the JSON report to this file (default: stdout JSON after the text report)")
		topK       = flag.Int("top", 10, "conflicts listed in the long-pole report")
		maxConfigs = flag.Int("maxconfigs", 20000, "deterministic per-conflict budget for every phase")
		reps       = flag.Int("reps", 5, "repetitions per overhead arm (per-grammar best-of)")
		workers    = flag.Int("workers", 0, "replay server worker pool (0 = GOMAXPROCS)")
	)
	flag.Parse()

	entries := corpus.All()
	if *smoke {
		e, ok := corpus.Get("figure1")
		if !ok {
			fmt.Fprintln(os.Stderr, "cextrace: corpus grammar figure1 missing")
			os.Exit(1)
		}
		entries = []*corpus.Entry{e}
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
		fmt.Fprintln(os.Stderr, "cextrace:", err)
		os.Exit(1)
	}
	rep.LongPole = lp

	det, err := verifyDeterminism(entries, *maxConfigs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cextrace:", err)
		os.Exit(1)
	}
	rep.Determin = det

	rep.Overhead = measureOverhead(entries, *maxConfigs, *reps)

	printReport(&rep)
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cextrace:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "cextrace:", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(data)
	}
	if !rep.Determin.Identical {
		os.Exit(1)
	}
}

// replayLongPole drives every grammar through an in-process cexd with a
// tracer attached and aggregates the span trees: per-phase totals and the
// top-k conflicts by search time.
func replayLongPole(entries []*corpus.Entry, maxConfigs, topK, workers int) (LongPole, error) {
	tracer := trace.NewTracer(len(entries) + 1)
	s := server.New(server.Config{Tracer: tracer, Workers: workers})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return LongPole{}, err
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	var stopOnce sync.Once
	shutdown := func() {
		stopOnce.Do(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			hs.Shutdown(ctx)
			s.Shutdown(ctx)
		})
	}
	defer shutdown()

	// One request per grammar; the X-Request-ID response header is the trace
	// ID, which is how conflict spans get their grammar attribution.
	grammarOf := make(map[string]string, len(entries))
	for _, e := range entries {
		body, err := json.Marshal(map[string]any{
			"name":    e.Name,
			"grammar": e.Source,
			"options": map[string]any{
				"no_timeout":  true,
				"max_configs": maxConfigs,
			},
		})
		if err != nil {
			return LongPole{}, err
		}
		res, err := http.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
		if err != nil {
			return LongPole{}, fmt.Errorf("replaying %s: %w", e.Name, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			return LongPole{}, fmt.Errorf("replaying %s: status %d", e.Name, res.StatusCode)
		}
		grammarOf[res.Header.Get("X-Request-ID")] = e.Name
	}

	// The middleware finishes a request's trace in a deferred root.End that
	// can run after the client already has the response, so the final trace
	// may not be in the ring yet. Shutting the server down first waits out
	// every in-flight handler; only then is the ring complete and safe to
	// aggregate.
	shutdown()

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
						pe.State = toInt(a.Val)
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

// detOpts is the deterministic option set of one matrix cell: wall-clock
// limits off, configuration budget on.
func detOpts(j, maxConfigs int) core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         maxConfigs,
		Parallelism:        j,
	}
}

// canonicalAt runs one grammar's full search at outer parallelism j and
// returns the canonical span-tree rendering (IDs, structure, deterministic
// attributes; no timestamps).
func canonicalAt(compiled *core.Compiled, name string, j, maxConfigs int) (string, error) {
	tracer := trace.NewTracer(1)
	ctx, root := trace.New(context.Background(), tracer, name, "run")
	finder := core.NewFinderFromCompiled(compiled, detOpts(j, maxConfigs))
	_, err := finder.FindAllContext(ctx)
	root.End()
	if err != nil {
		return "", err
	}
	traces := tracer.Traces()
	if len(traces) != 1 {
		return "", fmt.Errorf("%s: %d traces retained, want 1", name, len(traces))
	}
	return traces[0].Canonical(), nil
}

// verifyDeterminism checks that every grammar's span tree is byte-identical
// across the j{1,8} matrix.
func verifyDeterminism(entries []*corpus.Entry, maxConfigs int) (Determinism, error) {
	cells := []int{1, 8}
	det := Determinism{Identical: true, Grammars: len(entries)}
	for _, j := range cells {
		det.Matrix = append(det.Matrix, fmt.Sprintf("j=%d", j))
	}
	for _, e := range entries {
		_, tbl, err := eval.Build(e)
		if err != nil {
			return det, err
		}
		compiled := core.Compile(tbl)
		ref, err := canonicalAt(compiled, e.Name, cells[0], maxConfigs)
		if err != nil {
			return det, fmt.Errorf("%s: %w", e.Name, err)
		}
		for _, j := range cells[1:] {
			got, err := canonicalAt(compiled, e.Name, j, maxConfigs)
			if err != nil {
				return det, fmt.Errorf("%s at j=%d: %w", e.Name, j, err)
			}
			if got != ref {
				det.Identical = false
				fmt.Fprintf(os.Stderr, "cextrace: span tree for %s diverges at j=%d\n", e.Name, j)
			}
		}
	}
	return det, nil
}

// measureOverhead times the sequential corpus replay with tracing off and
// with tracing on (fresh tracer per rep), summing per-grammar best-of-reps
// for each arm. Grammars are precompiled so only the searches — the
// instrumented hot path — are on the clock.
func measureOverhead(entries []*corpus.Entry, maxConfigs, reps int) Overhead {
	type prebuilt struct {
		name     string
		compiled *core.Compiled
	}
	var pre []prebuilt
	for _, e := range entries {
		_, tbl, err := eval.Build(e)
		if err != nil {
			continue
		}
		pre = append(pre, prebuilt{e.Name, core.Compile(tbl)})
	}

	once := func(p prebuilt, traced bool) time.Duration {
		ctx := context.Background()
		var root *trace.Span
		if traced {
			ctx, root = trace.New(ctx, trace.NewTracer(1), p.name, "run")
		}
		finder := core.NewFinderFromCompiled(p.compiled, detOpts(1, maxConfigs))
		start := time.Now()
		if _, err := finder.FindAllContext(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "cextrace: overhead run %s: %v\n", p.name, err)
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

// toInt reads a numeric span attribute whether it arrived as the original
// int (in-process traces) or as float64 (after a JSON round trip).
func toInt(v any) int {
	switch n := v.(type) {
	case int:
		return n
	case int64:
		return int(n)
	case float64:
		return int(n)
	}
	return 0
}

func printReport(r *Report) {
	fmt.Printf("cextrace: %d grammars, budget %d configs/conflict\n\n", r.Grammars, r.MaxConfigs)
	lp := &r.LongPole
	fmt.Printf("replay: %d requests, %d conflicts\n", lp.Requests, lp.Conflicts)
	fmt.Printf("  wall by phase: queue-wait %.1fms, parse %.1fms, table %.1fms, search %.1fms (requests total %.1fms)\n",
		lp.QueueWaitMS, lp.ParseMS, lp.TableMS, lp.SearchMS, lp.RequestMS)
	fmt.Printf("\nlong pole (top %d conflicts by search time):\n", len(lp.Top))
	for i, p := range lp.Top {
		fmt.Printf("  %2d. %-14s state %-4d under %-12s %-14s %-24s %8.3fms\n",
			i+1, p.Grammar, p.State, p.Symbol, p.Kind, p.Outcome, p.MS)
	}
	verdict := "byte-identical"
	if !r.Determin.Identical {
		verdict = "DIVERGED"
	}
	fmt.Printf("\ndeterminism: %d grammars x %v: %s\n", r.Determin.Grammars, r.Determin.Matrix, verdict)
	fmt.Printf("overhead: disabled %.1fms, enabled %.1fms: %+.2f%% (per-grammar best of %d)\n\n",
		r.Overhead.DisabledMS, r.Overhead.EnabledMS, r.Overhead.OverheadPct, r.Overhead.Reps)
}
