#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build podbench from source
# inside the checkout, then run it with the driver's arguments.
# Everything the Go toolchain writes — build cache, module path, telemetry —
# is pointed into .bench_build so a run touches nothing outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f go.mod ]]; then
	echo "bench/run.sh: no go.mod in $PWD: the program's source is not in this checkout" >&2
	exit 1
fi
build="$PWD/.bench_build"
# A go command with no telemetry state forks a detached `go` child for its
# counter upload, which outlives the build; mode "off" makes it spawn nothing.
mkdir -p "$build/home/.config/go/telemetry"
echo off >"$build/home/.config/go/telemetry/mode"
HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	go build -o "$build/podbench" ./bench
exec "$build/podbench" "$@"
