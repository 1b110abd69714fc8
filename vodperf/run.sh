#!/usr/bin/env bash
# Builds the vodperf benchmark and the vodserve daemon from the source of
# the checkout that holds this script, then runs the benchmark with the
# given arguments from the checkout root. Everything the build and the
# runs write goes under .bench_build in the checkout.
#
#   bash vodperf/run.sh --workload daemon-zipf --seed 3 --seconds 10 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
cd "$here"
go build -o "$out/bin/vodperf" .
go build -o "$out/bin/vodserve" repro/cmd/vodserve
cd "$root"
exec "$out/bin/vodperf" -root "$root" -vodserve "$out/bin/vodserve" "$@"
