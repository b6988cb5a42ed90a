// Command cexload is a closed-loop load harness for cexd. It replays the
// Table-1 corpus (42 grammars) against a server at several concurrency
// levels, measuring per-request latency and outcome, and emits a JSON
// summary (p50/p95/p99, throughput, outcome counts) suitable for checking
// in as BENCH_serve.json.
//
// Closed loop means each worker issues its next request only after the
// previous one completes, so offered load tracks service capacity and the
// latency distribution is not inflated by coordinated omission at the
// harness level.
//
// With -selfserve the harness starts an in-process cexd on 127.0.0.1:0 and
// aims at it — no external daemon needed (used by scripts/verify.sh and
// scripts/bench_serve.sh).
//
// Usage:
//
//	cexload -selfserve -levels 1,4,16 -duration 5s -out BENCH_serve.json
//	cexload -url http://127.0.0.1:8372 -levels 8 -duration 30s
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lrcex/internal/corpus"
	"lrcex/internal/server"
	"lrcex/internal/server/client"
)

type levelResult struct {
	Concurrency int     `json:"concurrency"`
	DurationSec float64 `json:"duration_sec"`
	Requests    int     `json:"requests"`
	OK          int     `json:"ok"`
	CacheHits   int     `json:"cache_hits"`
	Partial     int     `json:"partial"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
	Throughput  float64 `json:"throughput_rps"`
	Latency     latency `json:"latency_ms"`
}

type latency struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Mean float64 `json:"mean"`
	Max  float64 `json:"max"`
}

type report struct {
	Bench       string        `json:"bench"`
	Date        string        `json:"date"`
	Go          string        `json:"go"`
	GOMAXPROCS  int           `json:"gomaxprocs"`
	Corpus      int           `json:"corpus_grammars"`
	Unique      bool          `json:"unique_sources"`
	MaxConfigs  int           `json:"max_configs"`
	DeadlineMS  int           `json:"deadline_ms"`
	SelfServe   bool          `json:"self_serve"`
	Levels      []levelResult `json:"levels"`
	MetricsTail []string      `json:"metrics_tail,omitempty"`
}

func main() {
	var (
		url        = flag.String("url", "", "target cexd base URL (empty with -selfserve)")
		selfserve  = flag.Bool("selfserve", false, "start an in-process cexd on 127.0.0.1:0 and aim at it")
		levelsFlag = flag.String("levels", "1,4,16", "comma-separated closed-loop concurrency levels")
		duration   = flag.Duration("duration", 5*time.Second, "measurement window per level")
		warmup     = flag.Duration("warmup", 500*time.Millisecond, "per-level warmup excluded from stats")
		unique     = flag.Bool("unique", false, "bust the result cache by making every request's grammar unique")
		maxConfigs = flag.Int("maxconfigs", 20000, "per-conflict search budget sent with each request")
		deadlineMS = flag.Int("deadline-ms", 10000, "per-request deadline sent with each request")
		retries    = flag.Int("retries", 0, "client retries on 429/503 (0 keeps shed responses visible)")
		out        = flag.String("out", "", "write the JSON report here (default stdout)")
		smoke      = flag.Bool("smoke", false, "smoke mode: one pass over the corpus per level, ignore -duration")
	)
	flag.Parse()
	logger := log.New(os.Stderr, "cexload: ", log.LstdFlags)

	levels, err := parseLevels(*levelsFlag)
	if err != nil {
		logger.Fatalf("-levels: %v", err)
	}

	base := *url
	var shutdown func()
	if *selfserve {
		if base != "" {
			logger.Fatal("-url and -selfserve are mutually exclusive")
		}
		base, shutdown = startSelfServe(logger)
		defer shutdown()
	} else if base == "" {
		logger.Fatal("need -url or -selfserve")
	}

	entries := corpus.All()
	if len(entries) == 0 {
		logger.Fatal("corpus is empty")
	}
	logger.Printf("target %s, %d corpus grammars, levels %v", base, len(entries), levels)

	c := client.New(base, client.WithRetries(*retries), client.WithBackoff(50*time.Millisecond))
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		logger.Fatalf("target unhealthy: %v", err)
	}

	rep := report{
		Bench:      "serve",
		Date:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Corpus:     len(entries),
		Unique:     *unique,
		MaxConfigs: *maxConfigs,
		DeadlineMS: *deadlineMS,
		SelfServe:  *selfserve,
	}

	for _, conc := range levels {
		lr := runLevel(ctx, logger, c, entries, conc, *duration, *warmup, *unique, *maxConfigs, *deadlineMS, *smoke)
		rep.Levels = append(rep.Levels, lr)
		logger.Printf("c=%d: %d req in %.1fs → %.1f req/s, p50 %.2fms p95 %.2fms p99 %.2fms (ok %d, cached %d, partial %d, shed %d, err %d)",
			conc, lr.Requests, lr.DurationSec, lr.Throughput,
			lr.Latency.P50, lr.Latency.P95, lr.Latency.P99,
			lr.OK, lr.CacheHits, lr.Partial, lr.Shed, lr.Errors)
	}

	if m, err := c.Metrics(ctx); err == nil {
		rep.MetricsTail = grepMetrics(m,
			"cexd_requests_total", "cexd_cache_hits_total", "cexd_shed_total",
			"cexd_singleflight_collapsed_total", "cexd_analyses_total")
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

	for _, lr := range rep.Levels {
		if lr.OK+lr.CacheHits == 0 {
			logger.Fatalf("level c=%d completed zero successful requests", lr.Concurrency)
		}
	}
}

// runLevel drives one closed-loop concurrency level and aggregates stats.
func runLevel(ctx context.Context, logger *log.Logger, c *client.Client, entries []*corpus.Entry,
	conc int, duration, warmup time.Duration, unique bool, maxConfigs, deadlineMS int, smoke bool) levelResult {

	var (
		mu        sync.Mutex
		lat       []float64 // milliseconds, measurement window only
		ok        int
		cacheHits int
		partial   int
		shed      int
		errs      int
	)
	var seq atomic.Int64
	var stop atomic.Bool

	// In smoke mode each worker walks the corpus once; otherwise workers
	// loop until the deadline.
	perWorker := 0
	if smoke {
		perWorker = (len(entries) + conc - 1) / conc
	}

	measureStart := time.Now().Add(warmup)
	deadline := measureStart.Add(duration)

	var wg sync.WaitGroup
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; ; iter++ {
				if smoke && iter >= perWorker {
					return
				}
				if !smoke && (stop.Load() || time.Now().After(deadline)) {
					return
				}
				n := seq.Add(1)
				e := entries[int(n)%len(entries)]
				src := e.Source
				if unique {
					// A unique %token changes the canonical fingerprint
					// (comments would not), forcing a fresh analysis.
					src = fmt.Sprintf("%%token __LOAD_%d\n%s", n, src)
				}
				req := &server.AnalyzeRequest{
					Name:    e.Name,
					Grammar: src,
					Options: server.AnalyzeOptions{
						NoTimeout:  true,
						MaxConfigs: maxConfigs,
						DeadlineMS: deadlineMS,
					},
				}
				start := time.Now()
				resp, err := c.Analyze(ctx, req)
				end := time.Now()
				elapsed := end.Sub(start)
				// A request counts when it completes inside the measurement
				// window (standard closed-loop accounting: throughput is
				// completions per second, and slow requests started during
				// warmup still contribute their latency).
				inWindow := smoke || (end.After(measureStart) && end.Before(deadline))

				mu.Lock()
				if inWindow {
					switch {
					case err == nil && resp.Cached:
						cacheHits++
						lat = append(lat, float64(elapsed)/1e6)
					case err == nil:
						ok++
						lat = append(lat, float64(elapsed)/1e6)
					case resp != nil && resp.Partial:
						partial++
						lat = append(lat, float64(elapsed)/1e6)
					case isShed(err):
						shed++
					default:
						errs++
						if errs <= 3 {
							logger.Printf("c=%d %s: %v", conc, e.Name, err)
						}
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	stop.Store(true)

	elapsed := duration.Seconds()
	if smoke {
		elapsed = time.Since(measureStart.Add(-warmup)).Seconds()
	}
	total := ok + cacheHits + partial + shed + errs
	res := levelResult{
		Concurrency: conc,
		DurationSec: round2(elapsed),
		Requests:    total,
		OK:          ok,
		CacheHits:   cacheHits,
		Partial:     partial,
		Shed:        shed,
		Errors:      errs,
		Latency:     summarize(lat),
	}
	if elapsed > 0 {
		res.Throughput = round2(float64(ok+cacheHits+partial) / elapsed)
	}
	return res
}

func isShed(err error) bool {
	he, ok := err.(*client.HTTPError)
	return ok && he.Retryable()
}

// summarize computes the latency digest from per-request milliseconds.
func summarize(ms []float64) latency {
	if len(ms) == 0 {
		return latency{}
	}
	sort.Float64s(ms)
	sum := 0.0
	for _, v := range ms {
		sum += v
	}
	pct := func(p float64) float64 {
		i := int(p*float64(len(ms)) + 0.5)
		if i >= len(ms) {
			i = len(ms) - 1
		}
		return round3(ms[i])
	}
	return latency{
		P50:  pct(0.50),
		P95:  pct(0.95),
		P99:  pct(0.99),
		Mean: round3(sum / float64(len(ms))),
		Max:  round3(ms[len(ms)-1]),
	}
}

// startSelfServe brings up an in-process cexd on an ephemeral port.
func startSelfServe(logger *log.Logger) (base string, shutdown func()) {
	s := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logger.Fatalf("selfserve listen: %v", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	logger.Printf("selfserve cexd on http://%s", ln.Addr())
	return "http://" + ln.Addr().String(), func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		s.Shutdown(ctx)
	}
}

func parseLevels(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad level %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no levels")
	}
	return out, nil
}

// grepMetrics pulls the named series (and their labeled variants) out of a
// Prometheus text scrape for the report's convenience tail.
func grepMetrics(scrape string, names ...string) []string {
	var out []string
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		for _, n := range names {
			if strings.HasPrefix(line, n) {
				out = append(out, line)
				break
			}
		}
	}
	return out
}

func round2(v float64) float64 { return float64(int(v*100+0.5)) / 100 }
func round3(v float64) float64 { return float64(int(v*1000+0.5)) / 1000 }
