// Package server implements cexd's HTTP analysis service: POST a grammar in
// GDL, get back its conflicts and counterexamples as structured JSON. Around
// the search core it layers the production concerns the batch CLIs don't
// need: a content-addressed LRU result cache keyed by the canonical grammar
// fingerprint, singleflight collapsing of concurrent identical submissions, a
// bounded worker pool with admission control (queue-full submissions shed
// with 429 + Retry-After), per-request deadlines that propagate as context
// cancellation into the search loops, graceful drain on shutdown, and a
// Prometheus-style /metrics endpoint.
package server

import (
	"context"
	"fmt"
	"strings"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
	"lrcex/internal/trace"
)

// AnalyzeRequest is the body of POST /v1/analyze.
type AnalyzeRequest struct {
	// Name labels the grammar in error messages and reports (optional).
	Name string `json:"name,omitempty"`
	// Grammar is the GDL source (see internal/gdl for the format).
	Grammar string `json:"grammar"`
	// Options tunes the search and the request handling.
	Options AnalyzeOptions `json:"options,omitempty"`
}

// AnalyzeOptions is the per-request tuning surface. The zero value selects
// the server's configured defaults.
type AnalyzeOptions struct {
	// PerConflictTimeoutMS bounds the unifying search per conflict
	// (0 = server default; ignored when NoTimeout is set).
	PerConflictTimeoutMS int `json:"per_conflict_timeout_ms,omitempty"`
	// CumulativeTimeoutMS bounds the total search time across conflicts
	// (0 = server default; ignored when NoTimeout is set).
	CumulativeTimeoutMS int `json:"cumulative_timeout_ms,omitempty"`
	// NoTimeout disables both search time limits (pair it with MaxConfigs
	// for a deterministic budget; the request deadline still applies).
	NoTimeout bool `json:"no_timeout,omitempty"`
	// Parallelism is the number of conflicts searched concurrently within
	// this request (0 = server default). It never changes answers under
	// deterministic budgets, so it is excluded from the cache key.
	Parallelism int `json:"parallelism,omitempty"`
	// ExtendedSearch lifts the shortest-path restriction (paper §6).
	ExtendedSearch bool `json:"extended_search,omitempty"`
	// MaxConfigs bounds configurations expanded per conflict (0 = unlimited).
	MaxConfigs int `json:"max_configs,omitempty"`
	// MaxArenaBytes bounds search-owned memory per conflict (0 = server
	// default). Over budget, the conflict degrades to a nonunifying
	// example instead of risking the process. Deterministic (measured by
	// the search's own byte accounting), so it is part of the cache key.
	MaxArenaBytes int64 `json:"max_arena_bytes,omitempty"`
	// Kinds filters the returned examples: "unifying", "nonunifying", or
	// both (empty = both). Conflicts are always listed.
	Kinds []string `json:"kinds,omitempty"`
	// DeadlineMS is the whole-request deadline including queue wait
	// (0 = server default, capped at the server maximum). On expiry the
	// response is a partial report with a 504 status.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// optionsKey renders the report-affecting options canonically for the cache
// key: equivalent spellings of one request share a key. Parallelism and
// DeadlineMS are deliberately excluded: they change wall-clock, not
// (complete) answers, and partial reports are never cached. The time limits
// are dropped under NoTimeout, which overrides them (see finderOptions), and
// Kinds enters as the set of kinds wantKind lets through, not as spelled.
func (o AnalyzeOptions) optionsKey() string {
	pc, cum := o.PerConflictTimeoutMS, o.CumulativeTimeoutMS
	if o.NoTimeout {
		pc, cum = 0, 0
	}
	kinds := ""
	if o.wantKind(core.Unifying) {
		kinds += "u"
	}
	if o.wantKind(core.NonunifyingExhausted) {
		kinds += "n"
	}
	return fmt.Sprintf("pc=%d|cum=%d|nt=%t|ext=%t|max=%d|arena=%d|kinds=%s",
		pc, cum, o.NoTimeout, o.ExtendedSearch, o.MaxConfigs, o.MaxArenaBytes, kinds)
}

// validate rejects malformed options (unknown kinds, negative numbers).
func (o AnalyzeOptions) validate() error {
	for _, k := range o.Kinds {
		if k != "unifying" && k != "nonunifying" {
			return fmt.Errorf("unknown kind %q (want \"unifying\" or \"nonunifying\")", k)
		}
	}
	if o.PerConflictTimeoutMS < 0 || o.CumulativeTimeoutMS < 0 || o.DeadlineMS < 0 ||
		o.Parallelism < 0 || o.MaxConfigs < 0 || o.MaxArenaBytes < 0 {
		return fmt.Errorf("options must be non-negative (use no_timeout to disable limits)")
	}
	return nil
}

// wantKind reports whether an example kind passes the Kinds filter.
func (o AnalyzeOptions) wantKind(k core.ExampleKind) bool {
	if len(o.Kinds) == 0 {
		return true
	}
	name := "nonunifying"
	if k.IsUnifying() {
		name = "unifying"
	}
	for _, w := range o.Kinds {
		if w == name {
			return true
		}
	}
	return false
}

// finderOptions lowers the request options onto core.Options over the
// server's defaults.
func (o AnalyzeOptions) finderOptions(base core.Options) core.Options {
	opts := base
	if o.PerConflictTimeoutMS > 0 {
		opts.PerConflictTimeout = time.Duration(o.PerConflictTimeoutMS) * time.Millisecond
	}
	if o.CumulativeTimeoutMS > 0 {
		opts.CumulativeTimeout = time.Duration(o.CumulativeTimeoutMS) * time.Millisecond
	}
	if o.NoTimeout {
		opts.PerConflictTimeout = core.NoTimeout
		opts.CumulativeTimeout = core.NoTimeout
	}
	if o.Parallelism > 0 {
		opts.Parallelism = o.Parallelism
	}
	if o.MaxConfigs > 0 {
		opts.MaxConfigs = o.MaxConfigs
	}
	if o.MaxArenaBytes > 0 {
		opts.MaxArenaBytes = o.MaxArenaBytes
	}
	opts.ExtendedSearch = o.ExtendedSearch
	return opts
}

// ConflictJSON is one unresolved conflict in wire form.
type ConflictJSON struct {
	State   int      `json:"state"`
	Kind    string   `json:"kind"` // "shift/reduce" or "reduce/reduce"
	Symbol  string   `json:"symbol"`
	Symbols []string `json:"symbols,omitempty"` // reduce/reduce lookahead intersection
	Item1   string   `json:"item1"`
	Item2   string   `json:"item2"`
}

// ExampleJSON is one counterexample in wire form. Report carries the full
// Figure-11 rendering (header, example, derivations); the flat fields are
// for programmatic consumers.
type ExampleJSON struct {
	Conflict    int       `json:"conflict"` // index into Conflicts
	Kind        string    `json:"kind"`
	Unifying    bool      `json:"unifying"`
	Nonterminal string    `json:"nonterminal,omitempty"`
	Example     string    `json:"example,omitempty"` // unifying sentential form with • at the conflict
	Prefix      string    `json:"prefix,omitempty"`
	After1      string    `json:"after1,omitempty"`
	After2      string    `json:"after2,omitempty"`
	Report      string    `json:"report"`
	ElapsedMS   float64   `json:"elapsed_ms"`
	Expanded    int       `json:"expanded"`
	Stats       StatsJSON `json:"stats"`
}

// StatsJSON mirrors core.SearchStats on the wire.
type StatsJSON struct {
	Expanded     int64 `json:"expanded"`
	Pushed       int64 `json:"pushed"`
	DedupHits    int64 `json:"dedup_hits"`
	PeakFrontier int64 `json:"peak_frontier"`
	AllocBytes   int64 `json:"alloc_bytes"`
	PathExpanded int64 `json:"path_expanded"`
}

func statsJSON(s core.SearchStats) StatsJSON {
	return StatsJSON{
		Expanded:     s.Expanded,
		Pushed:       s.Pushed,
		DedupHits:    s.DedupHits,
		PeakFrontier: s.PeakFrontier,
		AllocBytes:   s.AllocBytes,
		PathExpanded: s.PathExpanded,
	}
}

// Timings breaks a request's wall-clock down by phase. ParseMS and TableMS
// are zero when the compile cache supplied the grammar and its tables — the
// phases simply did not run — so compile-cache effectiveness is directly
// observable per response (and cumulatively via /metrics phase counters).
// On a result-cache hit no phase ran at all: only TotalMS is nonzero.
type Timings struct {
	QueueMS  float64 `json:"queue_ms"`  // admission → worker pickup
	ParseMS  float64 `json:"parse_ms"`  // GDL parse (pre-queue; 0 on a compile-cache hit)
	TableMS  float64 `json:"table_ms"`  // LALR automaton + table + search-graph construction (0 on a compile-cache hit)
	SearchMS float64 `json:"search_ms"` // counterexample searches
	TotalMS  float64 `json:"total_ms"`
}

// AnalyzeResponse is the body of a successful (or partial) analysis.
type AnalyzeResponse struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
	// Cached is true when the report was served from the result cache.
	Cached bool `json:"cached"`
	// CompileCached is true when the analysis reused a compiled grammar
	// (parse table + search graph) from the compile cache, skipping the GDL
	// parse and the table construction. Independent of Cached: a result-cache
	// hit answers without analyzing at all, a compile-cache hit still runs
	// the searches.
	CompileCached bool `json:"compile_cached,omitempty"`
	// Partial is true when the request deadline expired mid-search: the
	// examples present are valid, later conflicts are missing (status 504).
	Partial bool `json:"partial,omitempty"`

	Nonterminals  int  `json:"nonterminals"`
	Productions   int  `json:"productions"`
	States        int  `json:"states"`
	ConflictCount int  `json:"conflict_count"`
	Resolved      int  `json:"resolved"` // conflicts settled by precedence
	Ambiguous     bool `json:"ambiguous"`
	// Degraded counts conflicts answered below full fidelity: searches
	// recovered from a panic or capped by the memory budget. Zero in
	// normal operation.
	Degraded int `json:"degraded,omitempty"`

	Conflicts []ConflictJSON `json:"conflicts"`
	Examples  []ExampleJSON  `json:"examples"`
	Stats     StatsJSON      `json:"stats"`
	Timings   Timings        `json:"timings"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Code is machine-readable: invalid_json, invalid_options, parse_error,
	// too_large, limit_exceeded, overloaded, draining, deadline,
	// method_not_allowed, not_found.
	Code string `json:"code"`
	// RetryAfterMS accompanies overloaded/draining responses.
	RetryAfterMS int `json:"retry_after_ms,omitempty"`
	// RequestID accompanies panic 500s so the response can be correlated
	// with the server's log line and stack trace.
	RequestID string `json:"request_id,omitempty"`
}

// symsWithDot renders a sentential form with the paper's • marker at dot.
func symsWithDot(g *grammar.Grammar, syms []grammar.Sym, dot int) string {
	parts := make([]string, 0, len(syms)+1)
	for i, s := range syms {
		if i == dot {
			parts = append(parts, "•")
		}
		parts = append(parts, g.Name(s))
	}
	if dot >= len(syms) {
		parts = append(parts, "•")
	}
	return strings.Join(parts, " ")
}

func symNames(g *grammar.Grammar, syms []grammar.Sym) []string {
	out := make([]string, len(syms))
	for i, s := range syms {
		out[i] = g.Name(s)
	}
	return out
}

// analyze runs the table construction and counterexample search for one
// admitted job. ctx carries the request deadline; on expiry the report is
// returned with Partial set and the examples found so far. The grammar has
// already been parsed (pre-queue) so 422s never consume a worker.
//
// compiled, when non-nil, is this grammar's cached compilation artifact: the
// build phase is skipped entirely (TableMS stays 0, CompileCached is set).
// When nil, the artifact is built here and offered to onCompiled before the
// searches start, so even an analysis that later times out or is cancelled
// leaves the compiled grammar behind for the retry.
//
// Alongside the wire-form response it returns the raw examples in conflict
// order — the repair advisor consumes them directly (they seed candidate
// synthesis and the replay probes), and converting back from ExampleJSON
// would lose the symbol-level derivations.
func analyze(ctx context.Context, g *grammar.Grammar, name, fp string, compiled *core.Compiled, onCompiled func(*core.Compiled), opts AnalyzeOptions, base core.Options) (*AnalyzeResponse, []*core.Example, error) {
	resp := &AnalyzeResponse{Name: name, Fingerprint: fp}
	resp.Nonterminals = len(g.Nonterminals())
	resp.Productions = g.NumProductions()

	if err := ctx.Err(); err != nil {
		resp.Partial = true
		return resp, nil, err
	}

	if compiled == nil {
		_, build := trace.Time(ctx, "table.build")
		compiled = core.Compile(lr.BuildTable(lr.Build(g)))
		build.Span().Set("states", len(compiled.Table().A.States))
		resp.Timings.TableMS = millis(build.End())
		if onCompiled != nil {
			onCompiled(compiled)
		}
	} else {
		resp.CompileCached = true
	}
	tbl := compiled.Table()
	a := tbl.A
	resp.States = len(a.States)
	resp.ConflictCount = len(tbl.Conflicts)
	resp.Resolved = len(tbl.Resolved)

	resp.Conflicts = make([]ConflictJSON, len(tbl.Conflicts))
	for i, c := range tbl.Conflicts {
		cj := ConflictJSON{
			State:  c.State,
			Kind:   c.Kind.String(),
			Symbol: g.Name(c.Sym),
			Item1:  a.ItemString(c.Item1),
			Item2:  a.ItemString(c.Item2),
		}
		if c.Kind == lr.ReduceReduce {
			cj.Symbols = symNames(g, c.Syms)
		}
		resp.Conflicts[i] = cj
	}

	finder := core.NewFinderFromCompiled(compiled, opts.finderOptions(base))
	sctx, search := trace.Time(ctx, "search")
	search.Span().Set("conflicts", len(tbl.Conflicts))
	exs, err := finder.FindAllContext(sctx)
	resp.Timings.SearchMS = millis(search.End())
	resp.Stats = statsJSON(finder.Stats())
	deg := finder.Degraded()
	resp.Degraded = int(deg.Recovered + deg.MemoryAborts)

	resp.Examples = make([]ExampleJSON, 0, len(exs))
	for i, ex := range exs {
		if ex == nil {
			break
		}
		if ex.Kind.IsUnifying() {
			resp.Ambiguous = true
		}
		if !opts.wantKind(ex.Kind) {
			continue
		}
		ej := ExampleJSON{
			Conflict:  i,
			Kind:      ex.Kind.String(),
			Unifying:  ex.Kind.IsUnifying(),
			Report:    ex.Report(a),
			ElapsedMS: millis(ex.Elapsed),
			Expanded:  ex.Expanded,
			Stats:     statsJSON(ex.Stats),
		}
		if ex.Kind.IsUnifying() {
			ej.Nonterminal = g.Name(ex.Nonterminal)
			ej.Example = symsWithDot(g, ex.Syms, ex.Dot)
		} else {
			ej.Prefix = strings.Join(symNames(g, ex.Prefix), " ")
			ej.After1 = strings.Join(symNames(g, ex.After1), " ")
			ej.After2 = strings.Join(symNames(g, ex.After2), " ")
		}
		resp.Examples = append(resp.Examples, ej)
	}

	if err != nil {
		// Deadline or cancellation mid-search: the examples accumulated so
		// far are valid; mark the report partial and let the handler map the
		// status. Any other error from FindAllContext is a genuine failure.
		if ctx.Err() != nil {
			resp.Partial = true
			return resp, exs, ctx.Err()
		}
		return nil, nil, err
	}
	return resp, exs, nil
}

// millis renders a duration as the float milliseconds of the wire format.
func millis(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// Fingerprint exposes the canonical grammar fingerprint the cache keys on
// (gdl.Fingerprint without limits) — used by clients and tests.
func Fingerprint(name, src string) (string, error) {
	return gdl.Fingerprint(name, src, gdl.Limits{})
}
