// Package cexd is the cexd daemon's command line and serve/drain loop, kept
// out of package main so that every process that serves the analysis service
// runs the same code: cmd/cexd, and the children the kill/restart campaign
// (cmd/cexcampaign restart) SIGKILLs and reboots.
package cexd

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lrcex/internal/faults"
	"lrcex/internal/gdl"
	"lrcex/internal/server"
	"lrcex/internal/trace"
)

// Run parses cexd's flags from args, serves until SIGINT or SIGTERM, drains,
// and returns the process exit status: 0 after a clean drain, 1 on a
// runtime failure, 2 on a usage error.
func Run(args []string) int {
	fs := flag.NewFlagSet("cexd", flag.ExitOnError)
	var (
		addr         = fs.String("addr", "127.0.0.1:8372", "listen address")
		debugAddr    = fs.String("debug-addr", "", "separate listener for net/http/pprof (empty = disabled; never exposed on -addr)")
		workers      = fs.Int("workers", 0, "concurrent analyses (0 = GOMAXPROCS)")
		queue        = fs.Int("queue", 0, "queued jobs before shedding 429s (0 = default 64)")
		cache        = fs.Int("cache", 0, "LRU result cache entries (0 = default 256, negative disables)")
		compileCache = fs.Int("compile-cache", 0, "compiled-grammar cache entries, keyed by fingerprint alone (0 = default 64, negative disables)")
		maxSource    = fs.Int("max-source-bytes", 0, "largest accepted grammar source (0 = default 1 MiB)")
		maxProds     = fs.Int("max-productions", 0, "most productions per grammar (0 = default 20000)")
		maxSyms      = fs.Int("max-symbols", 0, "most distinct symbols per grammar (0 = default 10000)")
		deadline     = fs.Duration("deadline", 0, "default per-request deadline (0 = 30s)")
		maxDeadline  = fs.Duration("max-deadline", 0, "largest deadline a request may ask for (0 = 2m)")
		retryAfter   = fs.Duration("retry-after", 0, "Retry-After hint on 429/503 (0 = 1s)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight analyses")
		maxBody      = fs.Int64("max-body-bytes", 0, "largest accepted request body (0 = max-source-bytes + 64 KiB)")
		wdGrace      = fs.Duration("watchdog-grace", 0, "extra time past its deadline before an analysis is abandoned with 500 (0 = 30s)")
		faultSpec    = fs.String("faults", "", "fault-injection spec, e.g. \"seed=42;all=0.05\" (default: LRCEX_FAULTS; empty = disabled)")
		stateDir     = fs.String("state-dir", "", "directory for the durable cache store (empty = in-memory only)")
		snapInterval = fs.Duration("snapshot-interval", 0, "background state-snapshot interval (0 = 30s; needs -state-dir)")
		traceBuf     = fs.Int("trace-buf", 128, "request traces retained for /debug/traces (0 disables tracing)")
		logFormat    = fs.String("log-format", "json", "log output format: json (structured, one object per line) or text")
	)
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "cexd: unexpected arguments %q\n", fs.Args())
		return 2
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "cexd: unknown -log-format %q (want json or text)\n", *logFormat)
		return 2
	}
	logger := slog.New(handler).With("component", "cexd")
	fatal := func(msg string, args ...any) int {
		logger.Error(msg, args...)
		return 1
	}

	if err := faults.EnableSpec(*faultSpec); err != nil {
		return fatal("invalid fault spec", "err", err)
	}
	if faults.Enabled() {
		logger.Warn("fault injection armed", "spec", *faultSpec)
	}

	tracer := trace.NewTracer(*traceBuf)

	s := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		CompileEntries: *compileCache,
		Limits: gdl.Limits{
			MaxSourceBytes: *maxSource,
			MaxProductions: *maxProds,
			MaxSymbols:     *maxSyms,
		},
		DefaultDeadline:  *deadline,
		MaxDeadline:      *maxDeadline,
		RetryAfter:       *retryAfter,
		MaxBodyBytes:     *maxBody,
		WatchdogGrace:    *wdGrace,
		StateDir:         *stateDir,
		SnapshotInterval: *snapInterval,
		Logger:           logger,
		Tracer:           tracer,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fatal("listen failed", "addr", *addr, "err", err)
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// pprof stays on its own listener so profiling endpoints are never
	// reachable through the serving port (or anything fronting it).
	var ds *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			return fatal("debug listen failed", "debug_addr", *debugAddr, "err", err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ds = &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := ds.Serve(dln); err != nil && err != http.ErrServerClosed {
				logger.Error("debug serve failed", "err", err)
			}
		}()
		logger.Info("pprof listening", "debug_addr", dln.Addr().String())
	}

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"endpoints", "POST /v1/analyze, POST /v1/repair, GET /healthz, GET /metrics, GET /debug/traces",
		"trace_buf", *traceBuf)

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)

	select {
	case sig := <-sigc:
		logger.Info("signal received; draining", "signal", sig.String(), "drain_timeout", drainTimeout.String())
	case err := <-errc:
		return fatal("serve failed", "err", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting new connections first, then drain the analysis pool.
	if err := hs.Shutdown(ctx); err != nil {
		logger.Error("http shutdown failed", "err", err)
	}
	if ds != nil {
		_ = ds.Shutdown(ctx)
	}
	if err := s.Shutdown(ctx); err != nil {
		return fatal("drain failed", "err", err)
	}
	logger.Info("drained; bye")
	return 0
}
