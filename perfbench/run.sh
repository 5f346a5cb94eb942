#!/usr/bin/env bash
# Runs the repository benchmark from the root of a checkout, e.g.
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 30 --trace 0
#
# The program is built from source with `go run`. Everything the Go tool
# writes (build cache, temporary files, its config and telemetry) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
state="$root/.bench_build"
export GOCACHE="$state/gocache" GOTMPDIR="$state/tmp" GOPATH="$state/gopath"
export XDG_CONFIG_HOME="$state/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
cd "$root/perfbench"
exec go run . "$@"
