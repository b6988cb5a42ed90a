#!/bin/sh
# verify.sh — the repo's full verification ladder.
#
#   tier 1: go build ./... && go test ./...      (the hard gate; ROADMAP.md)
#   tier 2: go vet + race detector on the concurrent packages
#   tier 3: a short native-fuzz smoke of the whole pipeline
#   tier 4: cexchaos smoke — the corpus served end to end through an
#           in-process cexd and the typed client under a deterministic 5%
#           fault schedule; fails on a crash, a malformed response, a
#           GLR-invalid surviving counterexample, or no GLR-validated one
#   tier 5: cexdiff smoke — metamorphic differentials (3 mutators × 5
#           grammars × 2 seeds); fails on any invariant violation or a
#           j=1 vs j=8 canonical-report divergence
#   tier 6: cexfix smoke — the repair advisor over 5 small grammars;
#           fails on a language-breaking suggestion surviving validation
#           or a j=1 vs j=8 ranking divergence
#   tier 7: cexrestart smoke — a real cexd child over a durable state
#           dir, SIGKILLed mid-load and restarted; fails on a malformed
#           response, an unhealthy boot, a report that differs from the
#           never-killed control, or a cold warm-restart
#   tier 8: cextrace smoke — a traced replay through an in-process cexd;
#           fails if the span tree at j=8 diverges from the one at j=1
#   tier 9: benchmark gates — bench/ is its own Go module, so tier 1
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
# Finder's once-per-grammar shortest-path search).
go test -race -short ./internal/core/... ./internal/eval/... ./internal/repair/... ./internal/server/... ./internal/persist/... ./internal/trace/...

echo "== tier 3: fuzz smoke (${FUZZTIME}) =="
go test -run='^$' -fuzz=FuzzFindAll -fuzztime="$FUZZTIME" ./internal/core/
go test -run='^$' -fuzz=FuzzRecoverLadder -fuzztime=5s ./internal/core/
go test -run='^$' -fuzz=FuzzParseLimited -fuzztime=5s ./internal/gdl/
go test -run='^$' -fuzz=FuzzPersistLoad -fuzztime=5s ./internal/persist/

echo "== tier 4: chaos smoke (deterministic fault schedule) =="
go run ./cmd/cexchaos -seed 1 -rate 0.05 -smoke -out /dev/null

echo "== tier 5: metamorphic differential smoke =="
go run ./cmd/cexdiff -smoke -out /dev/null

echo "== tier 6: repair advisor smoke =="
go run ./cmd/cexfix -smoke -q -out /dev/null

echo "== tier 7: kill/restart durable-state smoke =="
go run ./cmd/cexrestart -smoke -out /dev/null

echo "== tier 8: tracing smoke (span-tree determinism) =="
go run ./cmd/cextrace -smoke -out /dev/null

echo "== tier 9: benchmark tests and smoke run =="
(cd bench && go test ./...)
bash bench/run.sh -smoke

echo "verify: OK"
