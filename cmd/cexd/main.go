// Command cexd serves counterexample analyses over HTTP: POST /v1/analyze
// takes GDL source plus search options and returns conflicts, counterexample
// derivations, and search statistics as JSON. The daemon fronts the search
// with a content-addressed LRU result cache, collapses identical in-flight
// requests, and sheds load (429 + Retry-After) when its bounded queue fills.
// GET /healthz reports liveness; GET /metrics exposes Prometheus text;
// GET /debug/traces serves the most recent request span trees (JSON, or
// ?format=chrome for chrome://tracing).
//
// Usage:
//
//	cexd -addr :8372 -workers 8 -queue 64 -cache 256
//
// Profiling lives on a separate listener, never the serving port:
//
//	cexd -debug-addr 127.0.0.1:8373
//	go tool pprof http://127.0.0.1:8373/debug/pprof/profile?seconds=10
//
// SIGINT/SIGTERM drain in-flight analyses before exiting (bounded by
// -drain-timeout).
package main

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

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8372", "listen address")
		debugAddr    = flag.String("debug-addr", "", "separate listener for net/http/pprof (empty = disabled; never exposed on -addr)")
		workers      = flag.Int("workers", 0, "concurrent analyses (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "queued jobs before shedding 429s (0 = default 64)")
		cache        = flag.Int("cache", 0, "LRU result cache entries (0 = default 256, negative disables)")
		compileCache = flag.Int("compile-cache", 0, "compiled-grammar cache entries, keyed by fingerprint alone (0 = default 64, negative disables)")
		maxSource    = flag.Int("max-source-bytes", 0, "largest accepted grammar source (0 = default 1 MiB)")
		maxProds     = flag.Int("max-productions", 0, "most productions per grammar (0 = default 20000)")
		maxSyms      = flag.Int("max-symbols", 0, "most distinct symbols per grammar (0 = default 10000)")
		deadline     = flag.Duration("deadline", 0, "default per-request deadline (0 = 30s)")
		maxDeadline  = flag.Duration("max-deadline", 0, "largest deadline a request may ask for (0 = 2m)")
		retryAfter   = flag.Duration("retry-after", 0, "Retry-After hint on 429/503 (0 = 1s)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight analyses")
		maxBody      = flag.Int64("max-body-bytes", 0, "largest accepted request body (0 = max-source-bytes + 64 KiB)")
		wdGrace      = flag.Duration("watchdog-grace", 0, "extra time past its deadline before an analysis is abandoned with 500 (0 = 30s)")
		faultSpec    = flag.String("faults", "", "fault-injection spec, e.g. \"seed=42;all=0.05\" (default: LRCEX_FAULTS; empty = disabled)")
		stateDir     = flag.String("state-dir", "", "directory for the durable cache store (empty = in-memory only)")
		snapInterval = flag.Duration("snapshot-interval", 0, "background state-snapshot interval (0 = 30s; needs -state-dir)")
		traceBuf     = flag.Int("trace-buf", 128, "request traces retained for /debug/traces (0 disables tracing)")
		logFormat    = flag.String("log-format", "json", "log output format: json (structured, one object per line) or text")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "cexd: unexpected arguments %q\n", flag.Args())
		os.Exit(2)
	}

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "cexd: unknown -log-format %q (want json or text)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler).With("component", "cexd")
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}

	if err := faults.EnableSpec(*faultSpec); err != nil {
		fatal("invalid fault spec", "err", err)
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
		fatal("listen failed", "addr", *addr, "err", err)
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
			fatal("debug listen failed", "debug_addr", *debugAddr, "err", err)
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

	select {
	case sig := <-sigc:
		logger.Info("signal received; draining", "signal", sig.String(), "drain_timeout", drainTimeout.String())
	case err := <-errc:
		fatal("serve failed", "err", err)
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
		fatal("drain failed", "err", err)
	}
	logger.Info("drained; bye")
}
