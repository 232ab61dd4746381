#!/usr/bin/env bash
# Builds swebd and the benchmark from this checkout's sources, then runs
# one workload. Run from the checkout root:
#
#   bash perfbench/run.sh --workload live-hot-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" HOME="$out/home" XDG_CONFIG_HOME="$out/home"
export GOPATH="$out/home/go" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/bin/swebd" ./cmd/swebd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -root "$root" -swebd "$out/bin/swebd" "$@"
