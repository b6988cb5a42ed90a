// Command cexrestart is the kill/restart chaos campaign for cexd's durable
// state (internal/persist): it runs a real cexd child process over a state
// directory, drives the Table-1 corpus through it, and SIGKILLs the child
// mid-load again and again — restarting it each time and continuing the load
// through the client's reconnect path. Write faults can be armed in the
// children so some journal records land on disk corrupted, exercising the
// skip-don't-refuse recovery on every boot.
//
// Four invariants are asserted:
//
//  1. zero malformed responses — every answer across every kill window
//     decodes into the typed client's structures;
//  2. zero boot failures — a child restarted over a torn, possibly corrupt
//     store always comes up healthy (corrupt records cost cache warmth,
//     never the boot);
//  3. byte-identical reports — every report served during the chaos run
//     matches the never-killed control run, volatile fields excluded;
//  4. a warm restart is actually warm — after a graceful drain and one more
//     restart, a full corpus pass is served mostly from the recovered cache
//     (the hit-rate is quantified in the report).
//
// Usage:
//
//	cexrestart -kills 5 -out BENCH_restart.json
//	cexrestart -smoke -out /dev/null     # verify.sh tier 7: 1 kill, small corpus
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
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"lrcex/internal/corpus"
	"lrcex/internal/faults"
	"lrcex/internal/server"
	"lrcex/internal/server/client"
)

type warmStats struct {
	Requests int     `json:"requests"`
	Cached   int     `json:"cached"`
	HitRate  float64 `json:"hit_rate"`
}

type restartReport struct {
	Bench        string    `json:"bench"`
	Date         string    `json:"date"`
	Go           string    `json:"go"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	Seed         int64     `json:"seed"`
	Kills        int       `json:"kills"`
	Smoke        bool      `json:"smoke"`
	FaultRate    float64   `json:"persist_fault_rate"`
	Corpus       int       `json:"corpus_grammars"`
	Requests     int       `json:"requests"`
	Malformed    int       `json:"malformed_responses"`
	BootFailures int       `json:"boot_failures"`
	Mismatches   int       `json:"report_mismatches"`
	Warm         warmStats `json:"warm_pass"`
	RecordsAtEnd int64     `json:"persist_records_loaded_final_boot"`
	SkippedAtEnd int64     `json:"persist_records_skipped_final_boot"`
	Violations   []string  `json:"violations"`
	DurationS    float64   `json:"duration_sec"`
}

func main() {
	var (
		serve        = flag.Bool("serve", false, "internal: run as the cexd child (spawned by the campaign)")
		addr         = flag.String("addr", "", "internal: child listen address")
		stateDir     = flag.String("state-dir", "", "state directory for the chaos child (default: a temp dir)")
		snapInterval = flag.Duration("snapshot-interval", 200*time.Millisecond, "child snapshot interval (short, so kills land between snapshots too)")
		faultSpec    = flag.String("faults", "", "internal: child fault spec")
		kills        = flag.Int("kills", 5, "SIGKILL/restart cycles, one mid-load per corpus pass")
		seed         = flag.Int64("seed", 42, "fault schedule seed for the children's persist faults")
		faultRate    = flag.Float64("fault-rate", 0.05, "persist.write/persist.read firing probability in chaos children (0 disables)")
		smoke        = flag.Bool("smoke", false, "smoke mode: 1 kill, smoke corpus (used by scripts/verify.sh)")
		out          = flag.String("out", "", "write the JSON report here (default stdout)")
	)
	flag.Parse()
	if *serve {
		runChild(*addr, *stateDir, *snapInterval, *faultSpec)
		return
	}
	logger := log.New(os.Stderr, "cexrestart: ", log.LstdFlags)

	entries := corpus.All()
	if *smoke {
		*kills = 1
		var smoked []*corpus.Entry
		for _, name := range corpus.SmokeNames() {
			if e, ok := corpus.Get(name); ok {
				smoked = append(smoked, e)
			}
		}
		entries = smoked
	}
	if len(entries) == 0 {
		logger.Fatal("corpus is empty")
	}

	bin, err := os.Executable()
	if err != nil {
		logger.Fatalf("locating own binary: %v", err)
	}
	base, childAddr := pickAddr(logger)
	work, err := os.MkdirTemp("", "cexrestart-*")
	if err != nil {
		logger.Fatalf("temp dir: %v", err)
	}
	defer os.RemoveAll(work)
	dirControl := work + "/control"
	dirChaos := work + "/chaos"
	if *stateDir != "" {
		dirChaos = *stateDir
	}

	rep := restartReport{
		Bench:      "restart",
		Date:       time.Now().UTC().Format(time.RFC3339),
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Kills:      *kills,
		Smoke:      *smoke,
		FaultRate:  *faultRate,
		Corpus:     len(entries),
	}
	var violations []string
	violate := func(format string, args ...any) {
		v := fmt.Sprintf(format, args...)
		violations = append(violations, v)
		logger.Printf("VIOLATION: %s", v)
	}

	// The client is the reconnect-hardened one: refused/reset connections in a
	// kill window retry with backoff, so a request issued the instant after
	// SIGKILL rides through the restart.
	c := client.New(base,
		client.WithRetries(10),
		client.WithBackoff(25*time.Millisecond),
		client.WithBreaker(0, 0)) // the campaign kills the server on purpose; don't fail fast
	ctx := context.Background()
	start := time.Now()

	// Phase 1 — control: a never-killed child over a fresh store, one pass,
	// canonical report per grammar.
	logger.Printf("control pass: %d grammars, no kills", len(entries))
	ctl := startChild(logger, bin, childAddr, dirControl, *snapInterval, "")
	if err := waitHealthy(base, 20*time.Second); err != nil {
		logger.Fatalf("control child never became healthy: %v", err)
	}
	control := make(map[string]string, len(entries))
	for _, e := range entries {
		resp, err := analyze(ctx, c, e)
		if err != nil {
			logger.Fatalf("control analyze %s: %v", e.Name, err)
		}
		control[e.Name] = canonical(resp)
	}
	stopGracefully(logger, ctl)

	// Phase 2 — chaos: each cycle is one corpus pass with a SIGKILL mid-pass
	// and an immediate restart; the pass continues through the kill window on
	// the client's retry loop. Children are armed with persist faults so the
	// store accumulates genuinely corrupt records for the next boot to skip.
	spec := ""
	if *faultRate > 0 {
		spec = fmt.Sprintf("seed=%d;persist.write=%g;persist.read=%g", *seed, *faultRate, *faultRate)
	}
	logger.Printf("chaos run: %d kill/restart cycles, fault spec %q, state dir %s", *kills, spec, dirChaos)
	child := startChild(logger, bin, childAddr, dirChaos, *snapInterval, spec)
	if err := waitHealthy(base, 20*time.Second); err != nil {
		rep.BootFailures++
		violate("first chaos child never became healthy: %v", err)
	}
	requests := 0
	for cycle := 0; cycle < *kills; cycle++ {
		cut := 0 // vary where in the pass the kill lands; always inside the pass
		if len(entries) > 1 {
			cut = 1 + cycle%(len(entries)-1)
		}
		for i, e := range entries {
			if i == cut {
				kill9(logger, child)
				child = startChild(logger, bin, childAddr, dirChaos, *snapInterval, spec)
				// No waitHealthy here: the very next request is the boot
				// probe, issued into the restart window on purpose.
			}
			resp, err := analyze(ctx, c, e)
			requests++
			if err != nil {
				if strings.Contains(err.Error(), "decoding response") {
					rep.Malformed++
					violate("cycle %d %s: malformed response: %v", cycle, e.Name, err)
				} else if i == cut {
					rep.BootFailures++
					violate("cycle %d %s: first request after restart failed: %v", cycle, e.Name, err)
				} else {
					violate("cycle %d %s: request failed: %v", cycle, e.Name, err)
				}
				continue
			}
			if got, want := canonical(resp), control[e.Name]; got != want {
				rep.Mismatches++
				violate("cycle %d %s: report differs from control", cycle, e.Name)
			}
		}
		if err := waitHealthy(base, 20*time.Second); err != nil {
			rep.BootFailures++
			violate("cycle %d: child unhealthy after pass: %v", cycle, err)
		}
	}
	// Graceful drain: SIGTERM flushes the final snapshot, so the warm pass
	// below measures what a clean restart actually recovers.
	stopGracefully(logger, child)

	// Phase 3 — warm: one more child over the battered store, no faults. The
	// pass must be served mostly from the recovered cache.
	logger.Printf("warm pass: restarting over %s", dirChaos)
	child = startChild(logger, bin, childAddr, dirChaos, *snapInterval, "")
	if err := waitHealthy(base, 20*time.Second); err != nil {
		rep.BootFailures++
		violate("warm child never became healthy: %v", err)
	}
	for _, e := range entries {
		resp, err := analyze(ctx, c, e)
		rep.Warm.Requests++
		if err != nil {
			violate("warm %s: %v", e.Name, err)
			continue
		}
		if resp.Cached {
			rep.Warm.Cached++
		}
		if got, want := canonical(resp), control[e.Name]; got != want {
			rep.Mismatches++
			violate("warm %s: recovered report differs from control", e.Name)
		}
	}
	if rep.Warm.Requests > 0 {
		rep.Warm.HitRate = float64(rep.Warm.Cached) / float64(rep.Warm.Requests)
	}
	rep.RecordsAtEnd, rep.SkippedAtEnd = scrapePersist(logger, c, ctx)
	stopGracefully(logger, child)

	if rep.Warm.HitRate < 0.5 {
		violate("warm hit-rate %.2f below 0.5 (%d/%d)", rep.Warm.HitRate, rep.Warm.Cached, rep.Warm.Requests)
	}
	rep.Requests = requests
	rep.Violations = violations
	if rep.Violations == nil {
		rep.Violations = []string{}
	}
	rep.DurationS = time.Since(start).Seconds()

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

	logger.Printf("%d kills over %d requests: %d malformed, %d boot failures, %d mismatches; warm hit-rate %.2f (%d/%d); final boot recovered %d records, skipped %d",
		*kills, requests, rep.Malformed, rep.BootFailures, rep.Mismatches,
		rep.Warm.HitRate, rep.Warm.Cached, rep.Warm.Requests, rep.RecordsAtEnd, rep.SkippedAtEnd)
	if len(violations) > 0 {
		logger.Fatalf("%d invariant violations", len(violations))
	}
	logger.Printf("invariants held: responses well-formed, every boot healthy, reports byte-identical to control")
}

// analyze issues one request with the campaign's standard options.
func analyze(ctx context.Context, c *client.Client, e *corpus.Entry) (*server.AnalyzeResponse, error) {
	return c.Analyze(ctx, &server.AnalyzeRequest{
		Name:    e.Name,
		Grammar: e.Source,
		Options: server.AnalyzeOptions{NoTimeout: true, MaxConfigs: 20000, DeadlineMS: 30000},
	})
}

// canonical renders a report with the volatile fields (cache provenance,
// wall-clock timings, allocation stats) zeroed — what "byte-identical across
// a restart" means.
func canonical(r *server.AnalyzeResponse) string {
	c := *r
	c.Cached = false
	c.CompileCached = false
	c.Stats = server.StatsJSON{}
	c.Timings = server.Timings{}
	c.Examples = append([]server.ExampleJSON(nil), r.Examples...)
	for i := range c.Examples {
		c.Examples[i].ElapsedMS = 0
	}
	b, err := json.Marshal(&c)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	return string(b)
}

// pickAddr reserves a localhost port for every child to share (the client's
// base URL has to survive restarts) and frees it for the first child.
func pickAddr(logger *log.Logger) (base, addr string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		logger.Fatalf("picking port: %v", err)
	}
	addr = ln.Addr().String()
	ln.Close()
	return "http://" + addr, addr
}

func startChild(logger *log.Logger, bin, addr, stateDir string, snapInterval time.Duration, faultSpec string) *exec.Cmd {
	args := []string{"-serve", "-addr", addr, "-state-dir", stateDir, "-snapshot-interval", snapInterval.String()}
	if faultSpec != "" {
		args = append(args, "-faults", faultSpec)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		logger.Fatalf("starting child: %v", err)
	}
	return cmd
}

// kill9 SIGKILLs the child — no drain, no flush, the crash being simulated.
func kill9(logger *log.Logger, cmd *exec.Cmd) {
	if err := cmd.Process.Kill(); err != nil {
		logger.Printf("kill: %v", err)
	}
	cmd.Wait() // reap; exit status is expectedly "killed"
}

// stopGracefully SIGTERMs the child and waits for its drain (which flushes
// the final snapshot).
func stopGracefully(logger *log.Logger, cmd *exec.Cmd) {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		logger.Printf("sigterm: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		logger.Printf("child exit after drain: %v", err)
	}
}

// waitHealthy polls /healthz until it answers 200 (ok or degraded — degraded
// is an expected state after booting over a corrupted store).
func waitHealthy(base string, timeout time.Duration) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		res, err := hc.Get(base + "/healthz")
		if err == nil {
			res.Body.Close()
			if res.StatusCode == http.StatusOK {
				return nil
			}
			last = fmt.Errorf("healthz status %d", res.StatusCode)
		} else {
			last = err
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("not healthy after %v: %v", timeout, last)
}

// scrapePersist pulls the final boot's recovery counters off /metrics.
func scrapePersist(logger *log.Logger, c *client.Client, ctx context.Context) (loaded, skipped int64) {
	text, err := c.Metrics(ctx)
	if err != nil {
		logger.Printf("metrics scrape: %v", err)
		return 0, 0
	}
	return metricValue(text, "cexd_persist_records_loaded_total"), metricValue(text, "cexd_persist_records_skipped_corrupt_total")
}

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

// runChild is the hidden -serve mode: a minimal cexd over the given state
// dir. SIGTERM drains (flushing the final snapshot); SIGKILL is the point of
// the exercise.
func runChild(addr, stateDir string, snapInterval time.Duration, faultSpec string) {
	logger := log.New(os.Stderr, "cexrestart-child: ", log.LstdFlags|log.Lmicroseconds)
	if err := faults.EnableSpec(faultSpec); err != nil {
		logger.Fatalf("%v", err)
	}
	s := server.New(server.Config{
		StateDir:         stateDir,
		SnapshotInterval: snapInterval,
		Logger:           slog.New(slog.NewTextHandler(os.Stderr, nil)).With("component", "cexd-child"),
	})
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	hs := &http.Server{Handler: s.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case <-sigc:
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	hs.Shutdown(ctx)
	if err := s.Shutdown(ctx); err != nil {
		logger.Fatalf("drain: %v", err)
	}
}
