#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Keeps every build product inside
# the checkout (.bench_build/), builds the harness, and hands over.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bgpbench" .
exec "$build/bgpbench" -root "$root" "$@"
