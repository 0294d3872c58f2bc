#!/usr/bin/env bash
# Build the benchmark from source, once per checkout, and run it in the
# foreground:
#
#   bash benchmark/run.sh --workload des_churn --seed 7 --seconds 10 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files,
# the toolchain's own configuration directory) goes under .bench_build in
# the checkout. The binary replaces this shell with exec, so the caller's
# process is the benchmark itself: there is no wrapper left to orphan it,
# and a signal or timeout aimed at this script reaches it directly. The
# binary starts no process of its own.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [ ! -f go.mod ] || [ ! -d vgas ]; then
	echo "benchmark/run.sh: this directory does not hold the repository (no go.mod, no vgas/); the benchmark builds the program from source" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# Toolchain telemetry would write under $HOME and may start a helper
# process; a private configuration directory with it switched off does
# neither.
echo off >"$build/config/go/telemetry/mode"
export XDG_CONFIG_HOME="$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
if left=$(pgrep -P $$); then
	echo "benchmark/run.sh: the build left processes behind: $left" >&2
	kill -KILL $left 2>/dev/null || true
	exit 3
fi
exec "$build/benchmark" "$@"
