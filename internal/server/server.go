package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lrcex/internal/core"
	"lrcex/internal/faults"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
	"lrcex/internal/repair"
	"lrcex/internal/trace"
)

// Config tunes the service. The zero value selects production-safe defaults.
type Config struct {
	// Workers is the number of analyses run concurrently (default
	// GOMAXPROCS). Each admitted job gets one worker; the search's own
	// parallelism nests inside it.
	Workers int
	// QueueDepth bounds jobs waiting for a worker (default 64). A full
	// queue sheds new submissions with 429 + Retry-After instead of
	// accumulating unbounded goroutines.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 256; 0 < explicit
	// negative disables caching).
	CacheEntries int
	// CompileEntries bounds the compiled-grammar LRU (default 64; explicit
	// negative disables). Entries are keyed by grammar fingerprint alone and
	// hold the parsed grammar, parse table, and search graph, so resubmissions
	// with different options — and mutated sources whose canonical form is
	// unchanged — skip parsing and table construction entirely.
	CompileEntries int
	// Limits guards the GDL parser against adversarial input (defaults:
	// 1 MiB source, 20000 productions, 10000 distinct symbols).
	Limits gdl.Limits
	// DefaultDeadline applies when a request names none (default 30s);
	// MaxDeadline caps what a request may ask for (default 2m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// Finder is the base search configuration requests override (zero value
	// = the paper's defaults).
	Finder core.Options
	// RetryAfter is the hint attached to 429/503 responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes caps the HTTP request body at the socket, independent of
	// the GDL source-byte limit (default Limits.MaxSourceBytes + 64 KiB of
	// JSON-envelope headroom). Overflow yields 413 with a typed
	// *RequestTooLargeError before any decoding happens.
	MaxBodyBytes int64
	// WatchdogGrace is how long past its deadline an admitted analysis may
	// run before the watchdog abandons the wait and answers 500 (default
	// 30s). The stall is counted and degrades /healthz; the stuck worker —
	// if it ever finishes — publishes into a result nobody reads.
	WatchdogGrace time.Duration
	// Logger receives operational events as structured records: recovered
	// panics, watchdog stalls, shed decisions, drain progress, persistence
	// failures. Request-scoped records carry a request_id attribute so a log
	// line, an X-Request-ID response header, and a trace correlate. nil
	// discards.
	Logger *slog.Logger
	// Tracer, when non-nil, records a span tree per /v1/ request into its
	// bounded ring buffer, served at /debug/traces (JSON, or ?format=chrome
	// for chrome://tracing). nil disables tracing: the instrumentation then
	// costs one atomic load per span site.
	Tracer *trace.Tracer
	// StateDir, when non-empty, enables crash-safe durable state: the result,
	// repair, and compiled-grammar caches are journaled to this directory and
	// reloaded on the next boot (internal/persist). A corrupt or truncated
	// store never prevents startup — unreadable records are skipped, counted
	// on /metrics, and surfaced as a /healthz degradation reason.
	StateDir string
	// SnapshotInterval is how often the background snapshotter compacts the
	// journal into an atomically-replaced snapshot (default 30s). A final
	// snapshot is always taken on graceful drain.
	SnapshotInterval time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CompileEntries == 0 {
		c.CompileEntries = 64
	}
	if c.Limits.MaxSourceBytes == 0 {
		c.Limits.MaxSourceBytes = 1 << 20
	}
	if c.Limits.MaxProductions == 0 {
		c.Limits.MaxProductions = 20000
	}
	if c.Limits.MaxSymbols == 0 {
		c.Limits.MaxSymbols = 10000
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes == 0 {
		c.MaxBodyBytes = int64(c.Limits.MaxSourceBytes) + 64*1024
	}
	if c.WatchdogGrace <= 0 {
		c.WatchdogGrace = 30 * time.Second
	}
	if c.SnapshotInterval <= 0 {
		c.SnapshotInterval = 30 * time.Second
	}
	return c
}

// RequestTooLargeError reports a request body over Config.MaxBodyBytes. It
// is typed (rather than a bare string) so the handler and tests agree on the
// 413 mapping and the limit that produced it.
type RequestTooLargeError struct{ Limit int64 }

func (e *RequestTooLargeError) Error() string {
	return fmt.Sprintf("request body exceeds %d bytes", e.Limit)
}

// Server is the analysis service. Create with New, mount Handler on an
// http.Server, and call Shutdown to drain.
type Server struct {
	cfg Config
	log *slog.Logger // never nil: a discard logger replaces Config.Logger == nil
	// cache holds complete reports under the keys resultKey builds, each
	// encoded once at insert as a hit sends it (cachedReport): a hit writes
	// the stored bytes and encodes only its own timings, and the journal and
	// the snapshot persist the same bytes.
	cache *lru[*cachedReport]
	// compile holds compiled grammars, keyed by the canonical grammar
	// fingerprint ALONE, unlike cache, whose key is fingerprint ×
	// report-affecting options. The split is deliberate: cache answers "have
	// I seen this exact question", compile answers "have I seen this
	// grammar". A request with novel options (or a mutated grammar whose
	// canonical form is unchanged — comments, whitespace, rule reordering the
	// fingerprint normalizes away) misses cache but still skips the GDL
	// parse, the automaton construction, and the graph build.
	compile *lru[*compiledGrammar]
	sf      group
	m       *metrics
	health  *healthTracker

	// per is the durable-state bridge (nil when Config.StateDir is empty —
	// persistence disabled, everything else unchanged).
	per *persister

	jobs     chan *job
	quit     chan struct{}
	draining atomic.Bool
	workers  sync.WaitGroup
	bg       sync.WaitGroup // background snapshotter
	snapSeq  atomic.Uint64  // trace IDs for background snapshots

	// testGate, when set, is invoked by a worker right before it runs a
	// job's analysis — tests use it to hold workers mid-flight.
	testGate func()
}

// job is one admitted analysis: everything the worker needs, plus the done
// channel its waiter blocks on.
type job struct {
	g    *grammar.Grammar
	name string
	fp   string
	rid  string // leader's request ID, for log correlation off the request goroutine
	opts AnalyzeOptions
	ctx  context.Context // carries the request deadline (and the flight's trace span)

	// queued times admission → worker pickup: opened by execute, ended by
	// the worker, and the source of both the queue.wait span and QueueMS.
	queued trace.Timer

	// compiled, when non-nil, is the compile-cache hit for this grammar; the
	// worker skips the table construction. onCompiled, when set, receives the
	// freshly built artifact on a miss (the handler points it at the cache).
	compiled   *core.Compiled
	onCompiled func(*core.Compiled)

	// repair, when non-nil, asks the worker to run the repair advisor over
	// the analysis result (the /v1/repair path); nil is a plain analysis.
	repair *RepairOptions

	res  *jobResult
	done chan struct{}
}

// jobResult pairs the report with the HTTP status the handler should send.
// repair carries the advisory report for /v1/repair jobs (nil otherwise; the
// handler assembles the RepairResponse from resp + repair after the shared
// timing stamp).
type jobResult struct {
	resp   *AnalyzeResponse
	repair *repair.Result
	status int
	err    error
}

var (
	errOverloaded = errors.New("server overloaded: queue full")
	errDraining   = errors.New("server draining")
	errWatchdog   = errors.New("watchdog: analysis exceeded its deadline plus grace")
)

// New starts the worker pool and returns the server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		cfg:     cfg,
		log:     logger,
		cache:   newLRU[*cachedReport](cfg.CacheEntries),
		compile: newLRU[*compiledGrammar](cfg.CompileEntries),
		m:       newMetrics(),
		health:  newHealthTracker(),
		jobs:    make(chan *job, cfg.QueueDepth),
		quit:    make(chan struct{}),
	}
	if cfg.StateDir != "" {
		per, err := newPersister(cfg.StateDir, cfg.Limits)
		if err != nil {
			// Persistence must never take the service down: run cold, but say
			// so loudly (the failure is also visible as a permanent /healthz
			// degradation via the snapshot-failure reason once snapshots run,
			// and here at boot in the log).
			s.log.Error("persist disabled: cannot open state dir",
				"state_dir", cfg.StateDir, "err", err)
		} else {
			s.per = per
			per.load(s)
			s.log.Info("persist recovered durable state",
				"state_dir", cfg.StateDir,
				"records_loaded", per.loaded.Load(),
				"records_skipped", per.skipped.Load())
			s.bg.Add(1)
			go per.snapshotLoop(s, cfg.SnapshotInterval, s.quit, &s.bg)
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// worker pulls jobs until quit, then drains the queue so every admitted job
// is answered before Shutdown returns.
func (s *Server) worker() {
	defer s.workers.Done()
	for {
		select {
		case j := <-s.jobs:
			s.run(j)
		case <-s.quit:
			for {
				select {
				case j := <-s.jobs:
					s.run(j)
				default:
					return
				}
			}
		}
	}
}

// run executes one job and publishes its result. Publication is in a defer
// so the done channel closes exactly once on every path, including a worker
// panic — the panic itself is contained by runGuarded, which turns it into a
// 500 result instead of killing the worker goroutine (and with it, the
// pool's capacity).
func (s *Server) run(j *job) {
	defer close(j.done)
	queueMS := millis(j.queued.End())
	if gate := s.testGate; gate != nil {
		gate()
	}
	res := s.runGuarded(j)
	if res.resp != nil {
		res.resp.Timings.QueueMS = queueMS
	}
	j.res = res
}

// runGuarded runs the analysis under a panic barrier: a panic anywhere in
// the job — table construction, the search (beyond the Finder's own
// per-conflict recovery), result assembly, or an injected server.worker
// fault — becomes a 500 jobResult carrying the panic value, and the worker
// survives to take the next job.
func (s *Server) runGuarded(j *job) (res *jobResult) {
	defer func() {
		if r := recover(); r != nil {
			s.m.panics.Add(1)
			s.health.panicked()
			s.log.Error("worker panic recovered",
				"request_id", j.rid, "grammar", j.name,
				"panic", fmt.Sprint(r), "stack", string(faults.Stack()))
			res = &jobResult{
				status: http.StatusInternalServerError,
				err:    fmt.Errorf("worker panic: %v", r),
			}
		}
	}()
	faults.PanicAt(faults.ServerWorker)
	// Capture the compiled artifact for the repair advisor: on a compile-cache
	// miss, analyze builds it and hands it out through the callback chain.
	compiled := j.compiled
	onCompiled := j.onCompiled
	capture := func(c *core.Compiled) {
		compiled = c
		if onCompiled != nil {
			onCompiled(c)
		}
	}
	resp, exs, err := analyze(j.ctx, j.g, j.name, j.fp, j.compiled, capture, j.opts, s.cfg.Finder)
	// Per-conflict search latencies feed the exemplar histogram: slow-bucket
	// samples carry this flight's trace ID, so a tail-latency spike on
	// /metrics links straight to its span tree on /debug/traces.
	traceID := trace.ID(j.ctx)
	for _, ex := range exs {
		if ex != nil {
			s.m.observeConflict(ex.Elapsed, traceID)
		}
	}
	res = &jobResult{resp: resp}
	switch {
	case err == nil:
		res.status = http.StatusOK
		s.m.addSearchStats(coreStats(resp.Stats))
		s.m.degradedSearches.Add(int64(resp.Degraded))
	case resp != nil && resp.Partial:
		res.status = http.StatusGatewayTimeout
		s.m.addSearchStats(coreStats(resp.Stats))
		s.m.degradedSearches.Add(int64(resp.Degraded))
	default:
		res.status = http.StatusInternalServerError
		res.err = err
	}
	if j.repair != nil && res.status == http.StatusOK {
		rr, rerr := s.runRepair(j, compiled, exs)
		if rerr != nil {
			res.status = http.StatusInternalServerError
			res.err = rerr
			return res
		}
		res.repair = rr
		if rr.Partial {
			// The deadline expired inside candidate validation: the analysis
			// half is complete, the advisory half is cut short — same 504
			// partial-report contract as a mid-search expiry, never cached.
			resp.Partial = true
			res.status = http.StatusGatewayTimeout
		}
	}
	return res
}

// runRepair runs the repair advisor over one completed analysis, reusing the
// compiled artifact and the raw examples the search just produced. Candidate
// patches recompile through the server's compiled-grammar cache.
func (s *Server) runRepair(j *job, compiled *core.Compiled, exs []*core.Example) (*repair.Result, error) {
	ropts := j.repair.advisorOptions(j.opts.Parallelism, s.repairCompile)
	result, err := repair.Advise(j.ctx, repair.Input{
		Name:     j.name,
		Grammar:  j.g,
		Compiled: compiled,
		Examples: exs,
	}, ropts)
	if err != nil {
		return nil, err
	}
	s.m.addRepair(result)
	return result, nil
}

// repairCompile is the advisor's CompileFunc inside cexd: candidate patches
// are fingerprinted and looked up in the compiled-grammar cache before being
// parsed and built, and fresh builds are inserted — so re-validating the same
// candidate (across conflicts, retries, or grammars sharing a patch) skips
// the table construction exactly like resubmitted grammars do.
func (s *Server) repairCompile(name, src string) (*grammar.Grammar, *core.Compiled, error) {
	fp, fperr := gdl.Fingerprint(name, src, s.cfg.Limits)
	if fperr == nil {
		if ce, ok := s.compile.get(fp); ok {
			return ce.g, ce.c, nil
		}
	}
	g, err := gdl.ParseLimited(name, src, s.cfg.Limits)
	if err != nil {
		return nil, nil, err
	}
	c := core.Compile(lr.BuildTable(lr.Build(g)))
	if fperr == nil {
		s.addCompiled(context.Background(), fp, &compiledGrammar{g: g, c: c, name: name, src: src})
	}
	return g, c, nil
}

// addCompiled inserts into the compile cache and journals the insert (as
// fingerprint → source) when persistence is enabled. Every insert site goes
// through here so a restarted daemon can rebuild the artifact. ctx carries
// the span the journal append is attributed to (if any).
func (s *Server) addCompiled(ctx context.Context, fp string, ce *compiledGrammar) {
	s.compile.add(fp, ce)
	if s.per != nil {
		_, sp := trace.Start(ctx, "persist.append")
		sp.Set("record", "compile")
		s.per.noteCompile(fp, ce)
		sp.End()
	}
}

// addResult encodes a complete report, an *AnalyzeResponse or
// *RepairResponse, into a result-cache entry, inserts it and journals its
// bytes. Partial reports never reach here (they are never cached), so the
// store only ever holds reports a future request may be answered with
// verbatim.
func (s *Server) addResult(ctx context.Context, key string, report any) {
	e, err := newCachedReport(report)
	if err != nil {
		s.log.Error("result not cached", "request_id", RequestID(ctx), "err", err)
		return
	}
	s.cache.add(key, e)
	if s.per != nil {
		_, sp := trace.Start(ctx, "persist.append")
		sp.Set("record", "result")
		s.per.noteResult(key, e)
		sp.End()
	}
}

func coreStats(s StatsJSON) core.SearchStats {
	return core.SearchStats{
		Expanded:     s.Expanded,
		Pushed:       s.Pushed,
		DedupHits:    s.DedupHits,
		PeakFrontier: s.PeakFrontier,
		AllocBytes:   s.AllocBytes,
		PathExpanded: s.PathExpanded,
	}
}

// submit admits a job onto the bounded queue without blocking: a full queue
// is load-shed immediately (429), and a draining server refuses (503).
func (s *Server) submit(j *job) error {
	if s.draining.Load() {
		return errDraining
	}
	// Injected queue failure: the submission sheds exactly like a full
	// queue, exercising the 429 path under chaos schedules.
	if faults.Should(faults.ServerQueue) {
		return errOverloaded
	}
	select {
	case s.jobs <- j:
		return nil
	default:
		return errOverloaded
	}
}

// Shutdown drains the service: new submissions are refused with 503,
// queued and in-flight analyses complete (bounded by their own deadlines),
// and the worker pool exits. Returns ctx.Err() if the drain outlives ctx.
//
// The drain ends with a final durable-state flush (when persistence is on):
// the snapshot is taken only after every in-flight analysis has published —
// including 504-partial ones, whose compiled grammars and late metrics land
// mid-drain — so the store on disk and the last /metrics scrape agree about
// everything this process ever computed.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil // already shutting down
	}
	s.log.Info("drain started", "queued", len(s.jobs), "in_flight", s.m.inflight.Load())
	close(s.quit)
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		// Fail any job that slipped into the queue after the workers left
		// (the submit/drain race window); its waiter gets a 503.
		for {
			select {
			case j := <-s.jobs:
				j.res = &jobResult{status: http.StatusServiceUnavailable, err: errDraining}
				close(j.done)
			default:
				s.flushState()
				s.log.Info("drain complete")
				return nil
			}
		}
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flushState takes the graceful-drain snapshot and closes the store. The
// background snapshotter has already observed quit; waiting on it first
// guarantees the final snapshot is the last write.
func (s *Server) flushState() {
	if s.per == nil {
		return
	}
	s.bg.Wait()
	if err := s.snapshotTraced("drain"); err != nil {
		s.log.Error("persist final drain snapshot failed", "err", err)
	}
	if err := s.per.store.Close(); err != nil {
		s.log.Error("persist store close failed", "err", err)
	}
}

// snapshotTraced takes one snapshot under its own trace (snapshots run on
// background goroutines, outside any request), so snapshot cost shows up on
// /debug/traces alongside the requests it competes with.
func (s *Server) snapshotTraced(reason string) error {
	if s.cfg.Tracer == nil {
		return s.per.snapshot(s)
	}
	id := fmt.Sprintf("snapshot-%s-%06d", reason, s.snapSeq.Add(1))
	_, root := trace.New(context.Background(), s.cfg.Tracer, id, "persist.snapshot")
	root.Set("reason", reason)
	err := s.per.snapshot(s)
	if err != nil {
		root.Set("error", err.Error())
	}
	root.End()
	return err
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's HTTP mux:
//
//	POST /v1/analyze     analyze a grammar
//	POST /v1/repair      analyze + synthesize and validate conflict repairs
//	GET  /healthz        liveness (503 while draining)
//	GET  /metrics        Prometheus text exposition
//	GET  /debug/traces   recent request traces (404 unless Config.Tracer set;
//	                     ?format=chrome for a chrome://tracing file)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/analyze", func(w http.ResponseWriter, r *http.Request) { s.serveV1(w, r, false) })
	mux.HandleFunc("/v1/repair", func(w http.ResponseWriter, r *http.Request) { s.serveV1(w, r, true) })
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/debug/traces", s.handleTraces)
	return s.withRequestID(mux)
}

// handleTraces serves the tracer's ring buffer: newest-last JSON span trees,
// or a Chrome trace-event file with ?format=chrome.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	tracer := s.cfg.Tracer
	if tracer == nil {
		writeJSON(w, http.StatusNotFound, &ErrorResponse{
			Error: "tracing disabled (no tracer configured)", Code: "not_found",
		})
		return
	}
	traces := tracer.Traces()
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(trace.Chrome(traces))
		return
	}
	out := struct {
		Retained int               `json:"retained"`
		Total    int64             `json:"total"`
		Traces   []trace.TraceJSON `json:"traces"`
	}{Retained: len(traces), Total: tracer.Total()}
	out.Traces = make([]trace.TraceJSON, 0, len(traces))
	for _, t := range traces {
		out.Traces = append(out.Traces, t.JSON())
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz reports liveness with three states: "ok", "degraded" (still
// 200 — the server is up and shedding or recovering correctly, but the body
// names what's wrong so operators can steer traffic), and "draining" (503,
// shutdown has begun).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if reasons := s.degradedReasons(); len(reasons) > 0 {
		writeJSON(w, http.StatusOK, map[string]any{"status": "degraded", "reasons": reasons})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// degradedReasons merges the sliding-window health reasons (panics, stalls,
// shed rate) with the persistence layer's standing ones (corrupt records
// skipped at boot, a failed last snapshot).
func (s *Server) degradedReasons() []string {
	reasons := s.health.degradedReasons()
	if s.per != nil {
		reasons = append(reasons, s.per.reasons()...)
	}
	return reasons
}

// healthState renders the health tri-state as a metric gauge value.
func (s *Server) healthState() int64 {
	switch {
	case s.draining.Load():
		return 2
	case len(s.degradedReasons()) > 0:
		return 1
	default:
		return 0
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var result, compile cacheScrape
	result.len, result.cap = s.cache.len(), s.cfg.CacheEntries
	result.hits, result.misses, result.evictions = s.cache.counters()
	compile.len, compile.cap = s.compile.len(), s.cfg.CompileEntries
	compile.hits, compile.misses, compile.evictions = s.compile.counters()
	var per persistScrape
	if s.per != nil {
		per = s.per.scrape()
	}
	// Trace-ID exemplars are only legal in the OpenMetrics exposition, so
	// the format is negotiated: clients that accept openmetrics-text get the
	// exemplar-bearing rendering (with # EOF framing); everyone else gets
	// the classic text format without them, which the classic parser would
	// otherwise reject.
	om := strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text")
	if om {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
	} else {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	}
	s.m.write(w, len(s.jobs), cap(s.jobs), result, compile, per, s.healthState(), om)
}

// execute runs one admitted analysis (or analysis + repair, when rep is
// non-nil) through the singleflight, the bounded queue, and the watchdog —
// serveV1's stage after the cache lookups and the parse. Identical concurrent
// submissions ride one execution; the flight runs on a context detached from
// any single client so a leader disconnect cannot poison followers; the
// deadline still bounds it, and queue wait spends from the same budget.
func (s *Server) execute(reqCtx context.Context, key string, g *grammar.Grammar, name, fp, src string, compiled *core.Compiled, opts AnalyzeOptions, rep *RepairOptions, deadline time.Duration, parseMS float64) (*jobResult, error, bool) {
	rid := RequestID(reqCtx)
	return s.sf.do(key, func() (*jobResult, error) {
		// Injected downstream failure inside the singleflight leader: the
		// whole flight errors (leader and followers all see the 500).
		if err := faults.ErrorAt(faults.ServerFlight); err != nil {
			return nil, err
		}
		// The flight runs detached from the leader's request context — a
		// leader disconnect must not poison followers — but keeps the
		// leader's trace span, so the whole execution stays on one tree.
		ctx, cancel := context.WithTimeout(trace.Detach(reqCtx), deadline)
		defer cancel()
		ctx, flight := trace.Start(ctx, "singleflight.lead")
		defer flight.End()
		// The queue.wait span's context is dropped: the analysis spans are
		// its siblings under the flight, not its children.
		_, queued := trace.Time(ctx, "queue.wait")
		j := &job{
			g: g, name: name, fp: fp, rid: rid, opts: opts, compiled: compiled, repair: rep,
			ctx: ctx, queued: queued, done: make(chan struct{}),
		}
		if compiled == nil {
			// Insert into the compile cache as soon as the worker finishes
			// the build — before the searches — so even a deadline-expired
			// analysis leaves the tables behind for the retry.
			j.onCompiled = func(c *core.Compiled) {
				s.addCompiled(ctx, fp, &compiledGrammar{g: g, c: c, name: name, src: src})
			}
		}
		if err := s.submit(j); err != nil {
			j.queued.End()
			return nil, err
		}
		// Watchdog: the worker should answer within the deadline (context
		// cancellation propagates into the search) plus scheduling slack. If
		// it doesn't, something is wedged below us — stop holding the client
		// hostage, answer 500, count the stall, degrade health.
		wd := time.NewTimer(deadline + s.cfg.WatchdogGrace)
		defer wd.Stop()
		select {
		case <-j.done:
		case <-wd.C:
			s.m.stalls.Add(1)
			s.health.stalled()
			flight.Set("watchdog", "abandoned")
			s.log.Error("watchdog abandoned stalled analysis",
				"request_id", rid, "grammar", name,
				"deadline_ms", deadline.Milliseconds(),
				"grace_ms", s.cfg.WatchdogGrace.Milliseconds())
			return nil, errWatchdog
		}
		// Safe to mutate here: followers are still blocked on the flight,
		// and nothing else holds the report yet. Phase totals accumulate
		// here rather than per request so collapsed followers and cache
		// hits never double-count work that ran once.
		if j.res.resp != nil {
			j.res.resp.Timings.ParseMS = parseMS
			s.m.addPhaseTimings(j.res.resp.Timings)
		}
		return j.res, nil
	})
}

// repairKeyPrefix marks a repair report's result-cache key; see resultKey.
const repairKeyPrefix = "repair|"

// resultKey builds every result-cache key, and so every persisted result
// record's key: the canonical grammar fingerprint × the report-affecting
// analyze options (optionsKey). A repair report (rep non-nil) is further
// keyed by the advisor options, so the cache never serves a report computed
// under different advisor settings, and carries repairKeyPrefix, so the two
// routes never collide in the shared LRU; persister.loadRecord reads the
// prefix back to restore a record's wire type.
func resultKey(fp string, opts AnalyzeOptions, rep *RepairOptions) string {
	if rep == nil {
		return fp + "|" + opts.optionsKey()
	}
	return repairKeyPrefix + fp + "|" + opts.optionsKey() +
		"|rb" + strconv.Itoa(rep.RepairBudget) + "|rc" + strconv.Itoa(rep.MaxCandidates)
}

// decodeV1 decodes the route's own request type. /v1/analyze's has no
// "repair" field, so one there is ignored like any unknown field; rep is nil
// on that route and points at the decoded advisor options on /v1/repair.
func decodeV1(body io.Reader, repair bool) (req AnalyzeRequest, rep *RepairOptions, err error) {
	if !repair {
		ar := new(AnalyzeRequest)
		err = json.NewDecoder(body).Decode(ar)
		return *ar, nil, err
	}
	rr := new(RepairRequest)
	err = json.NewDecoder(body).Decode(rr)
	return AnalyzeRequest{Name: rr.Name, Grammar: rr.Grammar, Options: rr.Options}, &rr.Repair, err
}

// serveV1 is the one request pipeline behind POST /v1/analyze and POST
// /v1/repair: decode → fingerprint → result cache → compile cache or parse →
// singleflight → bounded queue → analysis → respond, with the repair advisor
// run worker-side on the analysis result when repair is set. The route
// decides only the decoded request type, the advisor-option validation, the
// cache key and its span name, the repair counters, the response wrapper and
// the failure message; limits, shedding, deadlines, the watchdog, drain and
// the error mapping are shared. Complete reports are cached under resultKey.
func (s *Server) serveV1(w http.ResponseWriter, r *http.Request, repair bool) {
	start := time.Now()
	s.health.request()
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.fail(w, start, http.StatusMethodNotAllowed, "method_not_allowed", "POST only", outcomeError)
		return
	}
	if s.draining.Load() {
		s.unavailable(w, start)
		return
	}

	// The JSON body wraps the grammar source; cap it at MaxBodyBytes
	// (independent of — and defaulting to headroom over — the GDL source
	// limit) so oversized bodies die at the socket before any decoding.
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	req, rep, err := decodeV1(r.Body, repair)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			te := &RequestTooLargeError{Limit: tooLarge.Limit}
			s.fail(w, start, http.StatusRequestEntityTooLarge, "too_large", te.Error(), outcomeTooLarge)
			return
		}
		s.fail(w, start, http.StatusUnprocessableEntity, "invalid_json", "malformed JSON body: "+err.Error(), outcomeInvalid)
		return
	}
	if req.Grammar == "" {
		s.fail(w, start, http.StatusUnprocessableEntity, "invalid_json", "missing \"grammar\" field", outcomeInvalid)
		return
	}
	if err := req.Options.validate(); err != nil {
		s.fail(w, start, http.StatusUnprocessableEntity, "invalid_options", err.Error(), outcomeInvalid)
		return
	}
	if rep != nil {
		if err := rep.validate(); err != nil {
			s.fail(w, start, http.StatusUnprocessableEntity, "invalid_options", err.Error(), outcomeInvalid)
			return
		}
	}
	name := req.Name
	if name == "" {
		name = "grammar"
	}

	ctx := r.Context()

	// Canonical fingerprint: O(source) lexing, no tables. A cache hit skips
	// everything downstream, including the GDL parse.
	fp, err := gdl.Fingerprint(name, req.Grammar, s.cfg.Limits)
	if err != nil {
		s.failParse(w, start, err)
		return
	}
	key := resultKey(fp, req.Options, rep)
	span := "cache.result"
	if repair {
		span = "cache.repair"
	}
	_, lookup := trace.Start(ctx, span)
	// Injected cache-node loss: the hit is discarded and the analysis
	// re-runs, exercising the miss path's correctness under chaos.
	if cached, ok := s.cache.get(key); ok && !faults.Should(faults.ServerCache) {
		lookup.Set("hit", true)
		lookup.End()
		if repair {
			s.m.repairCacheHits.Add(1)
		}
		s.respondCached(w, start, cached)
		return
	}
	lookup.Set("hit", false)
	lookup.End()

	// Compiled-grammar cache: keyed by fingerprint alone, so a result-cache
	// miss — different options, or a source mutation the canonical form
	// normalizes away — still skips the GDL parse and the table construction.
	var g *grammar.Grammar
	var compiled *core.Compiled
	var parseMS float64
	_, clookup := trace.Start(ctx, "cache.compile")
	if ce, ok := s.compile.get(fp); ok {
		clookup.Set("hit", true)
		clookup.End()
		g, compiled = ce.g, ce.c
	} else {
		clookup.Set("hit", false)
		clookup.End()
		_, parse := trace.Time(ctx, "gdl.parse")
		g, err = gdl.ParseLimited(name, req.Grammar, s.cfg.Limits)
		if err != nil {
			parse.Span().Set("error", err.Error())
			parse.End()
			s.failParse(w, start, err)
			return
		}
		parse.Span().Set("productions", g.NumProductions())
		parseMS = millis(parse.End())
	}

	deadline := s.cfg.DefaultDeadline
	if req.Options.DeadlineMS > 0 {
		deadline = time.Duration(req.Options.DeadlineMS) * time.Millisecond
	}
	if deadline > s.cfg.MaxDeadline {
		deadline = s.cfg.MaxDeadline
	}

	s.m.inflight.Add(1)
	defer s.m.inflight.Add(-1)

	res, err, shared := s.execute(ctx, key, g, name, fp, req.Grammar, compiled, req.Options, rep, deadline, parseMS)
	switch {
	case errors.Is(err, errOverloaded):
		s.m.shed.Add(1)
		s.health.shed()
		s.log.Warn("request shed: queue full",
			"request_id", RequestID(ctx), "grammar", name,
			"queue_depth", len(s.jobs), "queue_capacity", cap(s.jobs))
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		s.fail(w, start, http.StatusTooManyRequests, "overloaded",
			"analysis queue full; retry later", outcomeShed)
		return
	case errors.Is(err, errDraining):
		s.unavailable(w, start)
		return
	case err != nil:
		s.fail(w, start, http.StatusInternalServerError, "internal", err.Error(), outcomeError)
		return
	}
	if shared {
		s.m.collapsed.Add(1)
	}

	switch res.status {
	case http.StatusOK, http.StatusGatewayTimeout:
		var report any = res.resp
		if repair {
			report = &RepairResponse{AnalyzeResponse: *res.resp, Repair: res.repair}
		}
		// Partial reports are never cached: a longer-deadline retry must
		// re-run the search (and the repair validation). The flight's leader
		// caches the report its followers share, so it is encoded and
		// journaled once.
		outcome := outcomePartial
		if res.status == http.StatusOK {
			if !shared {
				s.addResult(ctx, key, report)
			}
			outcome = outcomeOK
		}
		s.respond(w, start, res.status, report, outcome)
	case http.StatusServiceUnavailable:
		s.unavailable(w, start)
	default:
		msg := "analysis failed"
		if repair {
			msg = "repair failed"
		}
		if res.err != nil {
			msg = res.err.Error()
		}
		s.fail(w, start, http.StatusInternalServerError, "internal", msg, outcomeError)
	}
}

// failParse maps parser errors onto protocol errors: oversized sources are
// 413, structural limits and syntax errors are 422.
func (s *Server) failParse(w http.ResponseWriter, start time.Time, err error) {
	var le *gdl.LimitError
	if errors.As(err, &le) {
		if le.Limit == gdl.LimitSourceBytes {
			s.fail(w, start, http.StatusRequestEntityTooLarge, "too_large", le.Error(), outcomeTooLarge)
			return
		}
		s.fail(w, start, http.StatusUnprocessableEntity, "limit_exceeded", le.Error(), outcomeInvalid)
		return
	}
	s.fail(w, start, http.StatusUnprocessableEntity, "parse_error", err.Error(), outcomeInvalid)
}

func (s *Server) unavailable(w http.ResponseWriter, start time.Time) {
	w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
	s.fail(w, start, http.StatusServiceUnavailable, "draining", "server is shutting down", outcomeUnavailable)
}

// respond writes a freshly analyzed success (or partial) report — an
// *AnalyzeResponse, or a *RepairResponse on /v1/repair — and records the
// outcome; respondCached writes cache hits. It copies the report before
// stamping the per-request fields so singleflight-shared reports are never
// mutated after publication. Served repair suggestions are counted here and
// in respondCached: a served suggestion is a served suggestion however it
// was computed.
func (s *Server) respond(w http.ResponseWriter, start time.Time, status int, report any, outcome string) {
	out, body, served := wireCopy(report)
	s.m.repairSuggestions.Add(int64(served))
	total := time.Since(start)
	out.Timings.TotalMS = millis(total)
	s.m.observe(outcome, total)
	writeJSON(w, status, body)
}

// fail writes an ErrorResponse and records the outcome.
func (s *Server) fail(w http.ResponseWriter, start time.Time, status int, code, msg, outcome string) {
	s.m.observe(outcome, time.Since(start))
	er := &ErrorResponse{Error: msg, Code: code}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		er.RetryAfterMS = int(s.cfg.RetryAfter / time.Millisecond)
	}
	writeJSON(w, status, er)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds renders a Retry-After header value (whole seconds,
// minimum 1 — the header has no sub-second form).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
