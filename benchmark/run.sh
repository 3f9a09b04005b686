#!/usr/bin/env bash
# Builds histserve, histproxy and the benchmark from the working tree
# and runs the benchmark. Everything it writes stays inside the
# checkout: binaries, Go's build cache and temp files under
# .bench_build/, results under benchmark/out/.
#
#   benchmark/run.sh [--seed N] [--smoke] [--repeat K]      all four workloads + traced run
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh compare A.json B.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
(cd "$root" && go build -o "$build/bin/" ./cmd/histserve ./cmd/histproxy)
(cd "$here" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
