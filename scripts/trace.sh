#!/bin/sh
# trace.sh — run the cextrace observability harness (the Table-1 corpus
# through an in-process cexd with tracing armed) and emit BENCH_trace.json:
# the long-pole report (top conflicts by search time, queue-wait vs compute
# breakdown), the span-tree determinism verdict across the j{1,8} matrix,
# and the measured overhead of tracing vs the untraced hot path.
# EXPERIMENTS.md quotes the numbers. A nonzero exit means a span tree
# diverged between worker counts — the report is still written.
#
# Usage: scripts/trace.sh [maxconfigs] [reps] [out]
#
#   maxconfigs   deterministic per-conflict budget (default 20000)
#   reps         repetitions per overhead arm, per-grammar best-of (default 5)
#   out          output file (default BENCH_trace.json)
set -eu
cd "$(dirname "$0")/.."

MAXCONFIGS="${1:-20000}"
REPS="${2:-5}"
OUT="${3:-BENCH_trace.json}"

go run ./cmd/cextrace \
	-maxconfigs "$MAXCONFIGS" -reps "$REPS" \
	-out "$OUT"

echo "wrote $OUT" >&2
