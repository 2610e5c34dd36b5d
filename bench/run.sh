#!/usr/bin/env bash
# Builds graphbench from this checkout and runs it with the given flags;
# this is the command BENCHMARK.json names. Everything the build writes —
# Go's build cache included — stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
# the go command also keeps a module cache under GOPATH and telemetry
# counters under the user's config directory
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
(cd "$root/bench" && go build -o "$build/bin/graphbench" ./graphbench)
exec "$build/bin/graphbench" -repo "$root" "$@"
