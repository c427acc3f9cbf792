#!/usr/bin/env bash
# Builds the daemon under test (cmd/svdd, cmd/svdreplay) and the
# benchmark driver from the checkout, then runs the driver with the
# given arguments. Every build product, cache and scratch file stays
# under .bench_build/perfbench in the directory it is started from.
#
#   bash perfbench/run.sh --workload steady-mix --seed 1 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
  GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/bin/svdd" ./cmd/svdd
go build -o "$out/bin/svdreplay" ./cmd/svdreplay
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out" "$@"
