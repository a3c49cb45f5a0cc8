#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload suite --seed 1 --seconds 10 --trace 0
# Build outputs, the Go build cache and per-run scratch files stay under
# .bench_build/ at the checkout root.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
# go install rewrites the binary only when it is stale; rewriting it on
# every run would leave its writeback to slow the run's set-up.
(cd "$here" && GOBIN="$out" go install .)
exec "$out/perfbench" --dir "$here" --scratch "$out" "$@"
