#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark inside the
# checkout (binary and Go build cache under .bench_build/, nothing outside
# the checkout) and runs it from the checkout root with the driver's
# arguments. In a directory that holds only BENCHMARK.json and benchmark/
# the build fails — the engine this module replaces in is missing — and the
# script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" -workdir "$build/data" "$@"
