// Command cexcampaign runs the campaigns that re-check the paper's claims
// over the Table-1 corpus (§6–7). The first argument picks the campaign:
//
//	cexcampaign chaos   -seed 42 -rate 0.05 -passes 3 -out BENCH_chaos.json
//	cexcampaign diff    -seeds 5 -v -out BENCH_diff.json
//	cexcampaign fix     -out BENCH_repair.json
//	cexcampaign restart -kills 5 -out BENCH_restart.json
//	cexcampaign trace   -out BENCH_trace.json
//
// Every campaign takes -smoke (the seconds-long form scripts/verify.sh runs)
// and -out (the JSON report; empty writes it to stdout). Progress and
// verdict lines go to stderr. The exit status is the verdict: nonzero when
// any invariant is violated. The report is written first, so a failed run
// still leaves it for the post-mortem.
//
// "cexcampaign serve [cexd flags]" runs cexd itself (internal/cexd). The
// restart campaign re-executes its own binary that way for every child, so
// the process it kills is the real daemon.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lrcex/internal/cexd"
	"lrcex/internal/core"
	"lrcex/internal/corpus"
	"lrcex/internal/server"
	"lrcex/internal/server/client"
)

const usage = "usage: cexcampaign chaos|diff|fix|restart|trace [flags]  (or: cexcampaign serve [cexd flags])"

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	name, args := os.Args[1], os.Args[2:]
	log.SetPrefix("cexcampaign " + name + ": ")
	var run func(args []string) int
	switch name {
	case "chaos":
		run = runChaos
	case "diff":
		run = runDiff
	case "fix":
		run = runFix
	case "restart":
		run = runRestart
	case "trace":
		run = runTrace
	case "serve":
		run = cexd.Run
	default:
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	os.Exit(run(args))
}

// header opens the chaos, diff and restart reports.
type header struct {
	Bench string `json:"bench"`
	// Date is left empty (and out of the JSON) by diff, whose report is
	// deterministic modulo timing.
	Date       string `json:"date,omitempty"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func newHeader(bench string, dated bool) header {
	h := header{Bench: bench, Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if dated {
		h.Date = time.Now().UTC().Format(time.RFC3339)
	}
	return h
}

// stdout is where an empty -out sends the report.
var stdout io.Writer = os.Stdout

// writeReport writes rep as indented JSON to path, or to stdout when path is
// empty.
func writeReport(path string, rep any) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if path == "" {
		_, err = stdout.Write(buf)
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	log.Printf("wrote %s", path)
	return nil
}

// verdict writes the report, then logs each violation and returns the exit
// status, nonzero when there is any violation or the report could not be
// written.
func verdict(out string, rep any, violations []string) int {
	if err := writeReport(out, rep); err != nil {
		log.Printf("writing the report: %v", err)
		return 1
	}
	for _, v := range violations {
		log.Printf("VIOLATION: %s", v)
	}
	if len(violations) > 0 {
		log.Printf("%d invariant violations", len(violations))
		return 1
	}
	log.Printf("invariants held")
	return 0
}

// campaignCorpus returns the grammars a campaign runs over: the full corpus,
// or under -smoke the smoke set. Two campaigns differ under -smoke: chaos
// keeps the full corpus (its smoke is one pass instead of three), and trace
// runs figure1 alone.
func campaignCorpus(campaign string, smoke bool) []*corpus.Entry {
	names := corpus.Names()
	switch {
	case !smoke || campaign == "chaos":
	case campaign == "trace":
		names = []string{"figure1"}
	default:
		names = corpus.SmokeNames()
	}
	return entries(names)
}

// entries looks names up in the corpus and exits on an unknown one.
func entries(names []string) []*corpus.Entry {
	out := make([]*corpus.Entry, 0, len(names))
	for _, n := range names {
		e, ok := corpus.Get(strings.TrimSpace(n))
		if !ok {
			log.Fatalf("unknown corpus grammar %q (try: %v)", n, corpus.Names())
		}
		out = append(out, e)
	}
	return out
}

// detOptions is a deterministic search budget: both wall-clock limits off,
// maxConfigs configurations per conflict, j conflicts at a time.
func detOptions(j, maxConfigs int) core.Options {
	return core.Options{
		PerConflictTimeout: core.NoTimeout,
		CumulativeTimeout:  core.NoTimeout,
		MaxConfigs:         maxConfigs,
		Parallelism:        j,
	}
}

// parallel calls fn(i) for every i in [0, n) from workers goroutines and
// returns once every call has.
func parallel(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// analyze asks c for one corpus grammar's analysis under a deterministic
// budget and a deadline.
func analyze(ctx context.Context, c *client.Client, e *corpus.Entry, maxConfigs, deadlineMS int) (*server.AnalyzeResponse, error) {
	return c.Analyze(ctx, &server.AnalyzeRequest{
		Name:    e.Name,
		Grammar: e.Source,
		Options: server.AnalyzeOptions{NoTimeout: true, MaxConfigs: maxConfigs, DeadlineMS: deadlineMS},
	})
}

// startInProcess serves a cexd from this process on a loopback port. It
// returns the base URL and a stop func that closes the listener, then drains
// the analysis pool and returns the drain's error.
func startInProcess(cfg server.Config) (base string, stop func() error, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	s := server.New(cfg)
	hs := &http.Server{Handler: s.Handler()}
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		return s.Shutdown(ctx)
	}, nil
}

// metricValue reads one integer sample off a /metrics text scrape (-1 when
// the metric is absent).
func metricValue(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseInt(strings.TrimSpace(strings.TrimPrefix(line, name+" ")), 10, 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}
