package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"lrcex/internal/server"
	"lrcex/internal/server/client"
)

// The restart campaign is kill/restart chaos for cexd's durable state
// (internal/persist): it runs a real cexd child process ("cexcampaign
// serve", the same code as cmd/cexd) over a state directory, drives the
// Table-1 corpus through it, and SIGKILLs the child mid-load again and
// again — restarting it each time and continuing the load through the
// client's reconnect path. Write faults can be armed in the children so
// some journal records land on disk corrupted, exercising the
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

type warmStats struct {
	Requests int     `json:"requests"`
	Cached   int     `json:"cached"`
	HitRate  float64 `json:"hit_rate"`
}

type restartReport struct {
	header
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

func runRestart(args []string) int {
	fs := flag.NewFlagSet("restart", flag.ExitOnError)
	var (
		stateDir     = fs.String("state-dir", "", "state directory for the chaos child (default: a temp dir)")
		snapInterval = fs.Duration("snapshot-interval", 200*time.Millisecond, "child snapshot interval (short, so kills land between snapshots too)")
		kills        = fs.Int("kills", 5, "SIGKILL/restart cycles, one mid-load per corpus pass")
		seed         = fs.Int64("seed", 42, "fault schedule seed for the children's persist faults")
		faultRate    = fs.Float64("fault-rate", 0.05, "persist.write/persist.read firing probability in chaos children (0 disables)")
		smoke        = fs.Bool("smoke", false, "smoke mode: 1 kill, smoke corpus (used by scripts/verify.sh)")
		out          = fs.String("out", "", "write the JSON report here (default stdout)")
	)
	fs.Parse(args)
	if *smoke {
		*kills = 1
	}
	entries := campaignCorpus("restart", *smoke)

	bin, err := os.Executable()
	if err != nil {
		log.Fatalf("locating own binary: %v", err)
	}
	base, childAddr := pickAddr()
	work, err := os.MkdirTemp("", "cexrestart-*")
	if err != nil {
		log.Fatalf("temp dir: %v", err)
	}
	defer os.RemoveAll(work)
	dirControl := work + "/control"
	dirChaos := work + "/chaos"
	if *stateDir != "" {
		dirChaos = *stateDir
	}
	// start re-executes this binary as "cexcampaign serve", which is cexd.
	start := func(dir, faultSpec string) *exec.Cmd {
		args := []string{"serve", "-addr", childAddr, "-state-dir", dir, "-snapshot-interval", snapInterval.String()}
		if faultSpec != "" {
			args = append(args, "-faults", faultSpec)
		}
		cmd := exec.Command(bin, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			log.Fatalf("starting child: %v", err)
		}
		return cmd
	}

	rep := restartReport{
		header:     newHeader("restart", true),
		Seed:       *seed,
		Kills:      *kills,
		Smoke:      *smoke,
		FaultRate:  *faultRate,
		Corpus:     len(entries),
		Violations: []string{},
	}
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
	}

	// The client is the reconnect-hardened one: refused/reset connections in a
	// kill window retry with backoff, so a request issued the instant after
	// SIGKILL rides through the restart.
	c := client.New(base,
		client.WithRetries(10),
		client.WithBackoff(25*time.Millisecond),
		client.WithBreaker(0, 0)) // the campaign kills the server on purpose; don't fail fast
	ctx := context.Background()
	began := time.Now()

	// Phase 1 — control: a never-killed child over a fresh store, one pass,
	// canonical report per grammar.
	log.Printf("control pass: %d grammars, no kills", len(entries))
	ctl := start(dirControl, "")
	if err := waitHealthy(c, 20*time.Second); err != nil {
		log.Fatalf("control child never became healthy: %v", err)
	}
	control := make(map[string]string, len(entries))
	for _, e := range entries {
		resp, err := analyze(ctx, c, e, 20000, 30000)
		if err != nil {
			log.Fatalf("control analyze %s: %v", e.Name, err)
		}
		control[e.Name] = canonical(resp)
	}
	stopGracefully(ctl)

	// Phase 2 — chaos: each cycle is one corpus pass with a SIGKILL mid-pass
	// and an immediate restart; the pass continues through the kill window on
	// the client's retry loop. Children are armed with persist faults so the
	// store accumulates genuinely corrupt records for the next boot to skip.
	spec := ""
	if *faultRate > 0 {
		spec = fmt.Sprintf("seed=%d;persist.write=%g;persist.read=%g", *seed, *faultRate, *faultRate)
	}
	log.Printf("chaos run: %d kill/restart cycles, fault spec %q, state dir %s", *kills, spec, dirChaos)
	child := start(dirChaos, spec)
	if err := waitHealthy(c, 20*time.Second); err != nil {
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
				kill9(child)
				child = start(dirChaos, spec)
				// No waitHealthy here: the very next request is the boot
				// probe, issued into the restart window on purpose.
			}
			resp, err := analyze(ctx, c, e, 20000, 30000)
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
		if err := waitHealthy(c, 20*time.Second); err != nil {
			rep.BootFailures++
			violate("cycle %d: child unhealthy after pass: %v", cycle, err)
		}
	}
	// Graceful drain: SIGTERM flushes the final snapshot, so the warm pass
	// below measures what a clean restart actually recovers.
	stopGracefully(child)

	// Phase 3 — warm: one more child over the battered store, no faults. The
	// pass must be served mostly from the recovered cache.
	log.Printf("warm pass: restarting over %s", dirChaos)
	child = start(dirChaos, "")
	if err := waitHealthy(c, 20*time.Second); err != nil {
		rep.BootFailures++
		violate("warm child never became healthy: %v", err)
	}
	for _, e := range entries {
		resp, err := analyze(ctx, c, e, 20000, 30000)
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
	rep.RecordsAtEnd, rep.SkippedAtEnd = scrapePersist(ctx, c)
	stopGracefully(child)

	if rep.Warm.HitRate < 0.5 {
		violate("warm hit-rate %.2f below 0.5 (%d/%d)", rep.Warm.HitRate, rep.Warm.Cached, rep.Warm.Requests)
	}
	rep.Requests = requests
	rep.DurationS = time.Since(began).Seconds()

	log.Printf("%d kills over %d requests: %d malformed, %d boot failures, %d mismatches; warm hit-rate %.2f (%d/%d); final boot recovered %d records, skipped %d",
		*kills, requests, rep.Malformed, rep.BootFailures, rep.Mismatches,
		rep.Warm.HitRate, rep.Warm.Cached, rep.Warm.Requests, rep.RecordsAtEnd, rep.SkippedAtEnd)
	return verdict(*out, &rep, rep.Violations)
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
func pickAddr() (base, addr string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("picking port: %v", err)
	}
	addr = ln.Addr().String()
	ln.Close()
	return "http://" + addr, addr
}

// kill9 SIGKILLs the child — no drain, no flush, the crash being simulated.
func kill9(cmd *exec.Cmd) {
	if err := cmd.Process.Kill(); err != nil {
		log.Printf("kill: %v", err)
	}
	cmd.Wait() // reap; exit status is expectedly "killed"
}

// stopGracefully SIGTERMs the child and waits for its drain (which flushes
// the final snapshot).
func stopGracefully(cmd *exec.Cmd) {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		log.Printf("sigterm: %v", err)
	}
	if err := cmd.Wait(); err != nil {
		log.Printf("child exit after drain: %v", err)
	}
}

// waitHealthy polls /healthz until it answers 200 (ok or degraded — degraded
// is an expected state after booting over a corrupted store).
func waitHealthy(c *client.Client, timeout time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	for {
		err := c.Health(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return fmt.Errorf("not healthy after %v: %v", timeout, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// scrapePersist pulls the final boot's recovery counters off /metrics.
func scrapePersist(ctx context.Context, c *client.Client) (loaded, skipped int64) {
	text, err := c.Metrics(ctx)
	if err != nil {
		log.Printf("metrics scrape: %v", err)
		return 0, 0
	}
	return metricValue(text, "cexd_persist_records_loaded_total"), metricValue(text, "cexd_persist_records_skipped_corrupt_total")
}
