#!/usr/bin/env bash
# Builds the serving benchmark and cmd/serve from the source tree this
# script sits in, then runs the benchmark with the given arguments:
#
#   bash servebench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Every build product, Go cache and run
# output stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/servebench"
mkdir -p "$out/bin"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(
	cd "$root/servebench"
	go build -o "$out/bin/servebench" .
	go build -o "$out/bin/serve" repro/cmd/serve
) >&2

exec "$out/bin/servebench" -root "$root" -serve "$out/bin/serve" -out "$out" "$@"
