#!/bin/sh
# verify.sh — the repo's full verification ladder.
#
#   tier 1: go build ./... && go test ./...      (the hard gate; ROADMAP.md)
#   tier 2: go vet + race detector on the concurrent packages
#   tier 3: a short native-fuzz smoke of the whole pipeline
#   tier 4: campaign smokes — one cexcampaign build runs the chaos, diff,
#           fix, restart and trace campaigns in their seconds-long forms;
#           each fails on any invariant violation (see cmd/cexcampaign): a
#           crash, a malformed response or a GLR-invalid counterexample
#           under faults; a j=1 vs j=8 divergence of canonical reports,
#           repair rankings or span trees; a language-breaking repair that
#           survives validation; an unhealthy boot, a report that differs
#           from the never-killed control, or a cold warm restart after a
#           real cexd child is SIGKILLed mid-load
#   tier 5: benchmark gates — bench/ is its own Go module, so tier 1
#           never reaches it; its tests and the -smoke run fail on a
#           report that differs from its golden, a unifying example the
#           GLR oracle does not find ambiguous, or a wrong served answer
#
# Usage: scripts/verify.sh [fuzztime]   (default fuzz smoke: 10s)
set -eu
cd "$(dirname "$0")/.."

FUZZTIME="${1:-10s}"

echo "== tier 1: build + tests =="
go build ./...
go test ./...

echo "== tier 2: vet + race =="
go vet ./...
# -short skips the long-pole work pins and trims the corpus-wide oracle and
# random-grammar budgets (tier 1 runs them in full, race-free); the j{1,8}
# determinism checks — parallel FindAll, span trees, the repair matrix — are
# the schedules the race detector exists to check, and run in full, as does
# TestConcurrentFindContextSharesPaths (eight goroutines racing to run one
# Finder's once-per-grammar shortest-path search) and TestOracleConcurrent
# (goroutines racing to build one engine.Oracle's restarted tables).
go test -race -short ./internal/core/... ./internal/engine/... ./internal/eval/... ./internal/repair/... ./internal/server/... ./internal/persist/... ./internal/trace/...

echo "== tier 3: fuzz smoke (${FUZZTIME}) =="
go test -run='^$' -fuzz=FuzzFindAll -fuzztime="$FUZZTIME" ./internal/core/
go test -run='^$' -fuzz=FuzzRecoverLadder -fuzztime=5s ./internal/core/
go test -run='^$' -fuzz=FuzzParseLimited -fuzztime=5s ./internal/gdl/
go test -run='^$' -fuzz=FuzzFingerprint -fuzztime=5s ./internal/gdl/
go test -run='^$' -fuzz=FuzzPersistLoad -fuzztime=5s ./internal/persist/

echo "== tier 4: campaign smokes (chaos, diff, fix, restart, trace) =="
bin="$(mktemp -d)"
trap 'rm -rf "$bin"' EXIT
campaign="$bin/cexcampaign"
go build -o "$campaign" ./cmd/cexcampaign
"$campaign" chaos -seed 1 -rate 0.05 -smoke -out /dev/null
"$campaign" diff -smoke -out /dev/null
"$campaign" fix -smoke -q -out /dev/null
"$campaign" restart -smoke -out /dev/null
"$campaign" trace -smoke -out /dev/null

echo "== tier 5: benchmark tests and smoke run =="
(cd bench && go test ./...)
bash bench/run.sh -smoke

echo "verify: OK"
