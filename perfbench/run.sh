#!/usr/bin/env bash
# Builds the benchmark and the tomserve binary it spawns, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig9-compute --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (Go build cache included).
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$out/bin"
go -C perfbench build -o "$out/bin/perfbench" .
go -C perfbench build -o "$out/bin/tomserve" repro/cmd/tomserve
exec "$out/bin/perfbench" -tomserve "$out/bin/tomserve" -work "$out" "$@"
