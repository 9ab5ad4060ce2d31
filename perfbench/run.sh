#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash perfbench/run.sh --workload steady-tinydup --seed 1 --seconds 50 --trace 0
#   bash perfbench/run.sh compare --base <dir> --change <dir>
#
# Run from the repository root. Everything the build and the runs write
# (Go build cache, binary, artifacts, result records, span files) stays
# under .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" || ! -f "$root/go.mod" ]]; then
	echo "perfbench: run from the repository root (perfbench/go.mod and go.mod must exist)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOPROXY=off
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"
