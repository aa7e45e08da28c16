#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and temporary files, the go command's
# configuration and telemetry, and run scratch space all stay in
# .bench_build/ at the root; nothing is fetched.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --work "$build" "$@"
