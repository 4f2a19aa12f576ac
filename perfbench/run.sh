#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it:
#   bash perfbench/run.sh --workload certify --seed 1 --seconds 50 --trace 0
# The build cache, the binary and every temporary file stay inside the
# checkout, under .bench_build (or $CARGO_TARGET_DIR when it is set).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off GOTELEMETRY=off
(cd "$here" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -root "$root" -tmp "$out/tmp" "$@"
