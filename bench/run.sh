#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it, passing
# every argument through, e.g.:
#
#   bash bench/run.sh -workload sweep-1core -seed 1 -seconds 15 -trace 0
#
# Everything the build and the run write stays inside the checkout, in
# .bench_build/: the Go build cache, temporary files, the benchmark
# binary, the smtsimd binary it builds, and trace files (out/).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
