#!/usr/bin/env bash
# Builds tempest-collectd and the perfbench binary from this checkout's
# sources, then runs one benchmark pass. Run from the repository root:
#
#   bash _perfbench/run.sh --workload ship-mem --seed 1 --seconds 8 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/tempest-collectd ] || [ ! -f _perfbench/go.mod ]; then
	echo "perfbench: run from the root of a Tempest checkout" >&2
	exit 2
fi

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/gocache" "$build/gotmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOPATH=$build/gopath GOMODCACHE=$build/gopath/pkg/mod
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/tempest-collectd" ./cmd/tempest-collectd >&2
(cd _perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" --collectd "$build/bin/tempest-collectd" --dir "$build/perfbench" "$@"
