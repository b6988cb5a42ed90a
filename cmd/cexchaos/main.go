// Command cexchaos is the chaos harness for the fault-injection subsystem:
// it arms every injection point at a configurable rate with a fixed seed,
// starts an in-process cexd, and replays the Table-1 corpus against it in a
// closed loop while faults fire across every layer — arena growth, visited-
// table growth, GDL parsing, the queue, the cache, singleflight leaders, and
// the workers themselves.
//
// Running the server in-process is the point: an uncontained panic anywhere
// in the stack kills the harness itself, so "the harness exited 0" is the
// proof that the degradation ladder held. Three invariants are asserted:
//
//  1. the process never dies — every injected panic is recovered into a
//     degraded answer or a well-formed 500;
//  2. every response is well-formed — JSON that decodes into the typed
//     client's structures, never a half-written body or hung connection;
//  3. every surviving unifying counterexample is still genuinely ambiguous,
//     re-validated against the independent GLR oracle (at least two parse
//     trees for the concretized sentential form).
//
// The same seed and rate replay the same fault schedule, so failures are
// reproducible by rerunning with the reported flags.
//
// Usage:
//
//	cexchaos -seed 42 -rate 0.05 -passes 3 -out BENCH_chaos.json
//	cexchaos -seed 1 -rate 0.05 -smoke -out /dev/null     # verify.sh tier 4
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lrcex/internal/corpus"
	"lrcex/internal/engine"
	"lrcex/internal/faults"
	"lrcex/internal/gdl"
	"lrcex/internal/grammar"
	"lrcex/internal/lr"
	"lrcex/internal/server"
	"lrcex/internal/server/client"
)

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
	Bench      string                         `json:"bench"`
	Date       string                         `json:"date"`
	Go         string                         `json:"go"`
	GOMAXPROCS int                            `json:"gomaxprocs"`
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

func main() {
	var (
		seed       = flag.Int64("seed", 42, "fault schedule seed (same seed + rate replays the same faults)")
		rate       = flag.Float64("rate", 0.05, "per-evaluation firing probability for every injection point")
		passes     = flag.Int("passes", 3, "closed-loop passes over the corpus")
		smoke      = flag.Bool("smoke", false, "smoke mode: one pass, small budgets (used by scripts/verify.sh)")
		conc       = flag.Int("conc", 4, "concurrent closed-loop workers")
		maxConfigs = flag.Int("maxconfigs", 20000, "per-conflict search budget sent with each request")
		deadlineMS = flag.Int("deadline-ms", 10000, "per-request deadline sent with each request")
		out        = flag.String("out", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "cexchaos: ", log.LstdFlags)

	if *smoke {
		*passes = 1
	}

	// Arm every registered point at the same rate, one seeded schedule.
	cfg := faults.Config{Seed: *seed, Rates: make(map[faults.Point]faults.Rate, len(faults.Points))}
	for _, p := range faults.Points {
		cfg.Rates[p] = faults.Rate{Prob: *rate}
	}
	faults.Enable(cfg)
	logger.Printf("armed %d injection points at rate %g, seed %d", len(faults.Points), *rate, *seed)

	// In-process server: uncontained panics kill this harness, which is the
	// crash detector. The watchdog grace is short so a wedged worker fails
	// the run quickly instead of hanging it.
	s := server.New(server.Config{
		WatchdogGrace: 10 * time.Second,
		Logger:        slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "cexd"),
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	base := "http://" + ln.Addr().String()
	logger.Printf("chaos target (in-process) on %s", base)

	entries := corpus.All()
	if len(entries) == 0 {
		logger.Fatal("corpus is empty")
	}

	// Short breaker cooldown: under a constant fault rate the circuit will
	// open now and then; the run should probe and recover, not stall.
	c := client.New(base,
		client.WithRetries(2),
		client.WithBackoff(10*time.Millisecond),
		client.WithBreaker(8, 500*time.Millisecond))
	ctx := context.Background()

	rep := chaosReport{
		Bench:      "chaos",
		Date:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Rate:       *rate,
		Passes:     *passes,
		Conc:       *conc,
		Corpus:     len(entries),
	}

	var (
		mu        sync.Mutex
		lat       []float64
		oc        outcomeCounts
		degraded  int64
		validated int
		oracleSkt int
		malformed []string
		crashes   []string
	)
	seen := make(map[string]bool) // grammar|example pairs already GLR-validated
	v := newValidator()

	start := time.Now()
	var seq atomic.Int64
	total := *passes * len(entries)
	var wg sync.WaitGroup
	for w := 0; w < *conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(seq.Add(1)) - 1
				if n >= total {
					return
				}
				e := entries[n%len(entries)]
				req := &server.AnalyzeRequest{
					Name:    e.Name,
					Grammar: e.Source,
					Options: server.AnalyzeOptions{
						NoTimeout:  true,
						MaxConfigs: *maxConfigs,
						DeadlineMS: *deadlineMS,
					},
				}
				t0 := time.Now()
				resp, err := c.Analyze(ctx, req)
				elapsed := float64(time.Since(t0)) / 1e6

				mu.Lock()
				lat = append(lat, elapsed)
				switch {
				case err == nil && resp.Cached:
					oc.Cached++
				case err == nil:
					oc.OK++
				case isPartial(resp, err):
					oc.Partial++
				default:
					classify(err, &oc, &malformed, &crashes, e.Name)
				}
				if resp != nil {
					degraded += int64(resp.Degraded)
				}
				mu.Unlock()

				// Invariant 3: surviving unifying examples must still be
				// genuinely ambiguous per the GLR oracle.
				if resp != nil && e.Name != "Java.2" {
					for i := range resp.Examples {
						ex := &resp.Examples[i]
						if !ex.Unifying {
							continue
						}
						key := e.Name + "|" + ex.Example
						mu.Lock()
						dup := seen[key]
						seen[key] = true
						mu.Unlock()
						if dup {
							continue
						}
						ok, skip, verr := v.validate(e, ex)
						mu.Lock()
						switch {
						case skip:
							oracleSkt++
						case !ok:
							crashes = append(crashes, fmt.Sprintf("%s: GLR oracle rejected %q: %v", e.Name, ex.Example, verr))
						default:
							validated++
						}
						mu.Unlock()
					}
				}
			}
		}()
	}
	wg.Wait()
	rep.DurationS = time.Since(start).Seconds()

	// Invariant 1 (tail end): the in-process server must still be alive and
	// answering — ok or degraded both prove survival; no answer is a crash.
	if err := c.Health(ctx); err != nil {
		crashes = append(crashes, fmt.Sprintf("post-run health check failed: %v", err))
	}
	shctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	hs.Shutdown(shctx)
	if err := s.Shutdown(shctx); err != nil {
		crashes = append(crashes, fmt.Sprintf("drain after chaos failed: %v", err))
	}

	rep.Requests = len(lat)
	rep.Outcomes = oc
	rep.Faults = faults.Snapshot()
	rep.TotalFired = faults.TotalFired()
	rep.Degraded = degraded
	rep.Validated = validated
	rep.OracleSkip = oracleSkt
	rep.Malformed = len(malformed)
	rep.Crashes = len(crashes)
	rep.Violations = append(append([]string{}, crashes...), malformed...)
	sort.Float64s(lat)
	if len(lat) > 0 {
		rep.P50MS = pct(lat, 0.50)
		rep.P99MS = pct(lat, 0.99)
	}

	buf, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		logger.Fatalf("encoding report: %v", err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		logger.Fatalf("writing %s: %v", *out, err)
	} else {
		logger.Printf("wrote %s", *out)
	}

	logger.Printf("%d requests: ok %d, cached %d, partial %d, shed %d, 5xx %d, 4xx %d, breaker %d; %d faults fired; %d degraded conflicts; %d examples GLR-validated",
		rep.Requests, oc.OK, oc.Cached, oc.Partial, oc.Shed, oc.ServerError, oc.ClientError, oc.BreakerOpen,
		rep.TotalFired, degraded, validated)
	if len(rep.Violations) > 0 {
		for _, v := range rep.Violations {
			logger.Printf("VIOLATION: %s", v)
		}
		logger.Fatalf("%d invariant violations", len(rep.Violations))
	}
	logger.Printf("invariants held: 0 crashes, 0 malformed responses")
}

// isPartial reports a 504 partial report (valid outcome, not a violation).
func isPartial(resp *server.AnalyzeResponse, err error) bool {
	he, ok := err.(*client.HTTPError)
	return ok && he.Status == http.StatusGatewayTimeout && resp != nil && resp.Partial
}

// classify sorts a failed request into an outcome class, flagging protocol
// violations (malformed bodies, dead connections) separately from the
// well-formed degraded answers chaos is supposed to produce.
func classify(err error, oc *outcomeCounts, malformed, crashes *[]string, name string) {
	if _, ok := err.(*client.CircuitOpenError); ok {
		oc.BreakerOpen++
		return
	}
	he, ok := err.(*client.HTTPError)
	if !ok {
		if strings.Contains(err.Error(), "decoding response") {
			*malformed = append(*malformed, fmt.Sprintf("%s: %v", name, err))
		} else {
			// Transport-level failure against an in-process server: the
			// listener died, which means the process (or its accept loop)
			// did not survive a fault.
			*crashes = append(*crashes, fmt.Sprintf("%s: transport error: %v", name, err))
		}
		return
	}
	switch {
	case he.Status == http.StatusTooManyRequests || he.Status == http.StatusServiceUnavailable:
		oc.Shed++
	case he.Status >= 500:
		oc.ServerError++
		if he.Code == "" {
			*malformed = append(*malformed, fmt.Sprintf("%s: %d with unstructured body: %q", name, he.Status, he.Message))
		}
	default:
		oc.ClientError++
		if he.Code == "" {
			*malformed = append(*malformed, fmt.Sprintf("%s: %d with unstructured body: %q", name, he.Status, he.Message))
		}
	}
}

// validator re-checks unifying examples against the GLR oracle, caching the
// per-grammar parse artifacts. Faults must stay out of the oracle's own
// parse, so it uses gdl.Parse (no injection point) on the trusted corpus.
type validator struct {
	mu       sync.Mutex
	grammars map[string]*grammar.Grammar
}

func newValidator() *validator {
	return &validator{grammars: make(map[string]*grammar.Grammar)}
}

func (v *validator) grammarFor(e *corpus.Entry) (*grammar.Grammar, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok := v.grammars[e.Name]; ok {
		return g, nil
	}
	g, err := gdl.Parse(e.Name, e.Source)
	if err != nil {
		return nil, err
	}
	v.grammars[e.Name] = g
	return g, nil
}

// validate checks one wire-form unifying example: reconstructed sentential
// form, restarted grammar, concretized to terminals, parsed by GLR; ok means
// >= 2 parse trees. skip marks oracle-side limits (fork explosion), which
// are properties of the oracle, not the counterexample.
func (v *validator) validate(e *corpus.Entry, ex *server.ExampleJSON) (ok, skip bool, err error) {
	g, err := v.grammarFor(e)
	if err != nil {
		return false, false, err
	}
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
	sub, err := g.WithStart(nt)
	if err != nil {
		return false, false, err
	}
	subSyms := make([]grammar.Sym, 0, len(syms))
	for _, s := range syms {
		m, found := sub.Lookup(g.Name(s))
		if !found {
			return false, false, fmt.Errorf("symbol %s lost in restart", g.Name(s))
		}
		subSyms = append(subSyms, m)
	}
	concrete, okc := engine.Concretize(sub, subSyms)
	if !okc {
		return false, false, fmt.Errorf("cannot concretize")
	}
	glr := engine.NewGLR(lr.BuildTable(lr.Build(sub)))
	n, err := glr.CountParses(concrete)
	if err != nil {
		return false, true, err // oracle limit, not a counterexample defect
	}
	if n < 2 {
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
