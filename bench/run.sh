#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload table1_batch --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Everything the Go toolchain and the
# benchmark write (build cache, temporary files, the binary, cexd state
# directories) lands under $CARGO_TARGET_DIR, default .bench_build, inside the
# working directory.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export TMPDIR=$out/tmp GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/cexbench" .)
exec "$out/cexbench" -repo "$root" "$@"
