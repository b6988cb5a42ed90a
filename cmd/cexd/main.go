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
	"os"

	"lrcex/internal/cexd"
)

func main() { os.Exit(cexd.Run(os.Args[1:])) }
