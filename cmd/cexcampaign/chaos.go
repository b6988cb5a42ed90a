package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"lrcex/internal/corpus"
	"lrcex/internal/engine"
	"lrcex/internal/faults"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/server"
	"lrcex/internal/server/client"
)

// The chaos campaign exercises the fault-injection subsystem: it arms every
// injection point at a configurable rate with a fixed seed (the search-core
// points at a hundredth of it, see runChaos), starts an in-process cexd, and
// replays the Table-1 corpus against it in a closed loop while faults fire
// across every layer — arena growth, visited-table growth, GDL parsing, the
// queue, the cache, singleflight leaders, and the workers themselves.
//
// Running the server in-process is the point: an uncontained panic anywhere
// in the stack kills the campaign itself, so "the campaign exited 0" is the
// proof that the degradation ladder held. Three invariants are asserted:
//
//  1. the process never dies — every injected panic is recovered into a
//     degraded answer or a well-formed 500;
//  2. every response is well-formed — JSON that decodes into the typed
//     client's structures, never a half-written body or hung connection;
//  3. every surviving unifying counterexample is still genuinely ambiguous,
//     re-validated against the independent GLR oracle (at least two parse
//     trees for the concretized sentential form) — and at least one
//     survives: a run that validates none has not checked this invariant,
//     and fails.
//
// The same seed and rate replay the same fault schedule, so failures are
// reproducible by rerunning with the reported flags.

// coreRateDiv divides -rate for the three search-core injection points (see
// runChaos). At 100 the seed 1–8 smokes fire 70–620 core faults on 12–18 of
// the corpus grammars and still GLR-validate 58–78 unifying examples.
const coreRateDiv = 100

type outcomeCounts struct {
	OK          int `json:"ok"`
	Cached      int `json:"cached"`
	Partial     int `json:"partial"`
	Shed        int `json:"shed"`
	ServerError int `json:"server_error"` // well-formed 5xx (injected queue/flight/worker faults)
	ClientError int `json:"client_error"` // well-formed 4xx (injected parse faults map to 422)
	BreakerOpen int `json:"breaker_open"` // client circuit breaker failed fast
}

type chaosReport struct {
	header
	Seed       int64                          `json:"seed"`
	Rate       float64                        `json:"rate"`
	Passes     int                            `json:"passes"`
	Conc       int                            `json:"concurrency"`
	Corpus     int                            `json:"corpus_grammars"`
	Requests   int                            `json:"requests"`
	Outcomes   outcomeCounts                  `json:"outcomes"`
	Faults     map[faults.Point]faults.Counts `json:"faults_fired"`
	TotalFired int64                          `json:"faults_fired_total"`
	Degraded   int64                          `json:"degraded_conflicts"`
	Validated  int                            `json:"glr_validated"`
	OracleSkip int                            `json:"glr_oracle_skips"`
	Crashes    int                            `json:"crashes"`
	Malformed  int                            `json:"malformed_responses"`
	Violations []string                       `json:"violations"`
	P50MS      float64                        `json:"p50_ms"`
	P99MS      float64                        `json:"p99_ms"`
	DurationS  float64                        `json:"duration_sec"`
}

func runChaos(args []string) int {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	var (
		seed       = fs.Int64("seed", 42, "fault schedule seed (same seed + rate replays the same faults)")
		rate       = fs.Float64("rate", 0.05, "per-evaluation firing probability for every injection point (search-core points: rate/100)")
		passes     = fs.Int("passes", 3, "closed-loop passes over the corpus")
		smoke      = fs.Bool("smoke", false, "smoke mode: one pass (used by scripts/verify.sh)")
		conc       = fs.Int("conc", 4, "concurrent closed-loop workers")
		maxConfigs = fs.Int("maxconfigs", 20000, "per-conflict search budget sent with each request")
		deadlineMS = fs.Int("deadline-ms", 10000, "per-request deadline sent with each request")
		out        = fs.String("out", "", "write the JSON report here (default stdout)")
	)
	fs.Parse(args)
	if *smoke {
		*passes = 1
	}

	entries := campaignCorpus("chaos", *smoke)
	v, err := newValidator(entries)
	if err != nil {
		log.Fatalf("parsing the oracle's grammars: %v", err)
	}

	// Arm every registered point from one seeded schedule. The server,
	// parse and persistence points are evaluated about once per request and
	// fire at -rate. The three search-core points are evaluated per search
	// step or per scratch growth, millions of times per run: at -rate they
	// degrade nearly every conflict (754 of 758 in the seed-1 smoke) and leave
	// invariant 3 no unifying example to check. They fire at -rate/coreRateDiv
	// instead, uncapped, so their firings fall where the search work is,
	// across the corpus. (A Rate.Max cap counts firings over the whole run
	// and would spend them all on the first searches to run.)
	cfg := faults.Config{Seed: *seed, Rates: make(map[faults.Point]faults.Rate, len(faults.Points))}
	for _, p := range faults.Points {
		cfg.Rates[p] = faults.Rate{Prob: *rate}
	}
	for _, p := range []faults.Point{faults.CoreArenaGrow, faults.CoreVisitedGrow, faults.CoreUnifyExpand} {
		cfg.Rates[p] = faults.Rate{Prob: *rate / coreRateDiv}
	}
	faults.Enable(cfg)
	log.Printf("armed %d injection points at rate %g (search-core points at %g), seed %d",
		len(faults.Points), *rate, *rate/coreRateDiv, *seed)

	// In-process server: uncontained panics kill this campaign, which is the
	// crash detector. The watchdog grace is short so a wedged worker fails
	// the run quickly instead of hanging it.
	base, stop, err := startInProcess(server.Config{
		WatchdogGrace: 10 * time.Second,
		Logger:        slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "cexd"),
	})
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("chaos target (in-process) on %s", base)

	// Short breaker cooldown: under a constant fault rate the circuit will
	// open now and then; the run should probe and recover, not stall.
	c := client.New(base,
		client.WithRetries(2),
		client.WithBackoff(10*time.Millisecond),
		client.WithBreaker(8, 500*time.Millisecond))
	ctx := context.Background()

	rep := chaosReport{
		header: newHeader("chaos", true),
		Seed:   *seed,
		Rate:   *rate,
		Passes: *passes,
		Conc:   *conc,
		Corpus: len(entries),
	}
	t := chaosTally{rep: &rep}
	seen := make(map[string]bool) // grammar|example pairs already GLR-validated

	start := time.Now()
	parallel(*passes*len(entries), *conc, func(n int) {
		e := entries[n%len(entries)]
		t0 := time.Now()
		resp, err := analyze(ctx, c, e, *maxConfigs, *deadlineMS)
		t.record(e.Name, float64(time.Since(t0))/1e6, resp, err)

		// Invariant 3: surviving unifying examples must still be
		// genuinely ambiguous per the GLR oracle.
		if resp == nil || e.Name == "Java.2" {
			return
		}
		for i := range resp.Examples {
			ex := &resp.Examples[i]
			if !ex.Unifying {
				continue
			}
			key := e.Name + "|" + ex.Example
			t.mu.Lock()
			dup := seen[key]
			seen[key] = true
			t.mu.Unlock()
			if dup {
				continue
			}
			ok, skip, verr := v.validate(e, ex)
			t.mu.Lock()
			switch {
			case skip:
				rep.OracleSkip++
			case !ok:
				t.crashes = append(t.crashes, fmt.Sprintf("%s: GLR oracle rejected %q: %v", e.Name, ex.Example, verr))
			default:
				rep.Validated++
			}
			t.mu.Unlock()
		}
	})
	rep.DurationS = time.Since(start).Seconds()

	// Invariant 1 (tail end): the in-process server must still be alive and
	// answering — ok or degraded both prove survival; no answer is a crash.
	if err := c.Health(ctx); err != nil {
		t.crashes = append(t.crashes, fmt.Sprintf("post-run health check failed: %v", err))
	}
	if rep.Degraded, err = degradedConflicts(ctx, c); err != nil {
		t.crashes = append(t.crashes, fmt.Sprintf("post-run metrics scrape failed: %v", err))
	}
	if err := stop(); err != nil {
		t.crashes = append(t.crashes, fmt.Sprintf("drain after chaos failed: %v", err))
	}

	rep.Requests = len(t.lat)
	rep.Faults = faults.Snapshot()
	rep.TotalFired = faults.TotalFired()
	rep.Malformed = len(t.malformed)
	rep.Crashes = len(t.crashes)
	rep.Violations = append(append([]string{}, t.crashes...), t.malformed...)
	if rep.Validated == 0 {
		// A run that re-validated no counterexample has not checked
		// invariant 3 at all.
		rep.Violations = append(rep.Violations, "no unifying example was GLR-validated")
	}
	sort.Float64s(t.lat)
	if len(t.lat) > 0 {
		rep.P50MS = pct(t.lat, 0.50)
		rep.P99MS = pct(t.lat, 0.99)
	}

	oc := rep.Outcomes
	log.Printf("%d requests: ok %d, cached %d, partial %d, shed %d, 5xx %d, 4xx %d, breaker %d; %d faults fired; %d degraded conflicts; %d examples GLR-validated",
		rep.Requests, oc.OK, oc.Cached, oc.Partial, oc.Shed, oc.ServerError, oc.ClientError, oc.BreakerOpen,
		rep.TotalFired, rep.Degraded, rep.Validated)
	return verdict(*out, &rep, rep.Violations)
}

// chaosTally accumulates a run's outcomes into rep (Outcomes, Validated,
// OracleSkip) and its own fields; the workers share it under mu.
type chaosTally struct {
	mu        sync.Mutex
	rep       *chaosReport
	lat       []float64 // per-request latency, ms
	malformed []string
	crashes   []string
}

// record folds one response into the tally.
func (t *chaosTally) record(name string, ms float64, resp *server.AnalyzeResponse, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lat = append(t.lat, ms)
	switch {
	case err == nil && resp.Cached:
		t.rep.Outcomes.Cached++
	case err == nil:
		t.rep.Outcomes.OK++
	case isPartial(resp, err):
		t.rep.Outcomes.Partial++
	default:
		t.classify(name, err)
	}
}

// degradedConflicts reads the server's cexd_search_degraded_total. Its one
// producer is the worker, once per analysis that ran: a cache hit or a
// singleflight follower shares the report of an analysis counted when it
// ran, so summing the responses' degraded counts would count it again.
func degradedConflicts(ctx context.Context, c *client.Client) (int64, error) {
	text, err := c.Metrics(ctx)
	if err != nil {
		return 0, err
	}
	return metricValue(text, "cexd_search_degraded_total"), nil
}

// isPartial reports a 504 partial report (valid outcome, not a violation).
func isPartial(resp *server.AnalyzeResponse, err error) bool {
	he, ok := err.(*client.HTTPError)
	return ok && he.Status == http.StatusGatewayTimeout && resp != nil && resp.Partial
}

// classify sorts a failed request into an outcome class, flagging protocol
// violations (malformed bodies, dead connections) separately from the
// well-formed degraded answers chaos is supposed to produce.
func (t *chaosTally) classify(name string, err error) {
	if _, ok := err.(*client.CircuitOpenError); ok {
		t.rep.Outcomes.BreakerOpen++
		return
	}
	he, ok := err.(*client.HTTPError)
	if !ok {
		if strings.Contains(err.Error(), "decoding response") {
			t.malformed = append(t.malformed, fmt.Sprintf("%s: %v", name, err))
		} else {
			// Transport-level failure against an in-process server: the
			// listener died, which means the process (or its accept loop)
			// did not survive a fault.
			t.crashes = append(t.crashes, fmt.Sprintf("%s: transport error: %v", name, err))
		}
		return
	}
	switch {
	case he.Status == http.StatusTooManyRequests || he.Status == http.StatusServiceUnavailable:
		t.rep.Outcomes.Shed++
		return
	case he.Status >= 500:
		t.rep.Outcomes.ServerError++
	default:
		t.rep.Outcomes.ClientError++
	}
	if he.Code == "" {
		t.malformed = append(t.malformed, fmt.Sprintf("%s: %d with unstructured body: %q", name, he.Status, he.Message))
	}
}

// validator re-checks unifying examples against the GLR oracle. Its
// per-grammar parse memo is filled before any fault is armed: every GDL
// parse passes the gdl.parse injection point, and an injected failure there
// would be charged to the counterexample under test. Each grammar's oracle
// builds a restarted table once, however many examples share its start.
type validator struct {
	grammars map[string]*grammar.Grammar // read-only once built
	oracles  map[string]*engine.Oracle
}

func newValidator(entries []*corpus.Entry) (*validator, error) {
	v := &validator{
		grammars: make(map[string]*grammar.Grammar, len(entries)),
		oracles:  make(map[string]*engine.Oracle, len(entries)),
	}
	for _, e := range entries {
		g, err := gdl.Parse(e.Name, e.Source)
		if err != nil {
			return nil, err
		}
		v.grammars[e.Name] = g
		v.oracles[e.Name] = engine.NewOracle(g, nil)
	}
	return v, nil
}

// validate checks one wire-form unifying example against the shared GLR
// oracle (engine.Oracle); ok means >= 2 parse trees. skip marks
// the oracle's fork limit, a property of the oracle's budget, not of the
// counterexample; any other oracle error is a verdict against it.
func (v *validator) validate(e *corpus.Entry, ex *server.ExampleJSON) (ok, skip bool, err error) {
	g := v.grammars[e.Name]
	nt, found := g.Lookup(ex.Nonterminal)
	if !found {
		return false, false, fmt.Errorf("unknown nonterminal %q", ex.Nonterminal)
	}
	var syms []grammar.Sym
	for _, name := range strings.Fields(ex.Example) {
		if name == "•" {
			continue
		}
		s, found := g.Lookup(name)
		if !found {
			return false, false, fmt.Errorf("unknown symbol %q in example", name)
		}
		syms = append(syms, s)
	}
	n, err := v.oracles[e.Name].CountParses(nt, syms)
	switch {
	case errors.Is(err, engine.ErrForkLimit):
		return false, true, err
	case err != nil:
		return false, false, err
	case n < 2:
		return false, false, fmt.Errorf("only %d parse(s)", n)
	}
	return true, false, nil
}

func pct(sorted []float64, p float64) float64 {
	i := int(p*float64(len(sorted)) + 0.5)
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(int(sorted[i]*1000+0.5)) / 1000
}
