#!/usr/bin/env bash
# Entry point BENCHMARK.json names: builds the harness from source into
# .bench_build and runs it with the driver's arguments. The Go build cache,
# the build's temporary files and the toolchain's own config and telemetry
# files go there too, so the benchmark writes nothing outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$PWD/$out" ;; esac
mkdir -p "$out/tmp" "$out/config/go/telemetry"
# With no mode file the go command counts as "local" and, once a day per
# config directory, starts a detached telemetry child that outlives it; a
# fresh checkout always has a fresh config directory. Mode off starts nothing.
echo off > "$out/config/go/telemetry/mode"
GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" go build -o "$out/cgrabench" ./bench
exec "$out/cgrabench" "$@"
