#!/usr/bin/env bash
# Builds the benchmark runner and vitdynd from this checkout's source,
# then runs one workload. Run it from the repository root:
#
#   bash vitbench/run.sh --workload warm --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the binaries, temporary cost stores and the
# traced runs' span files.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
(cd "$here" && go build -o "$out/bin/" . vitdyn/cmd/vitdynd) >&2
exec "$out/bin/vitbench" -bin "$out/bin/vitdynd" -out "$out" "$@"
