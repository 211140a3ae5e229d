#!/usr/bin/env bash
# Builds the repository benchmark and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload churn-raw --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain and the benchmark write (build cache, binary,
# trace spans) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$src" && go build -o "$out/perfbench" .)
# Freed heap pages are released lazily (MADV_FREE), so they stay resident
# between repetitions instead of being faulted back in from the VM host.
export GODEBUG=madvdontneed=0
exec "$out/perfbench" "$@"
