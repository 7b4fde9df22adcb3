#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"): build the
# load generator into .bench_build/ inside the checkout, then run it
# from the repo root with the caller's flags. Everything the Go
# toolchain writes (build cache, work directories, telemetry) is kept
# under .bench_build/ too, so a run touches nothing outside the checkout.
# The generator inherits this environment for its own `go build` of
# f3dd and f3dc.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -C "$root/benchmark" -o "$build/bin/f3dbench" . >&2
cd "$root"
exec "$build/bin/f3dbench" "$@"
