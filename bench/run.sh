#!/usr/bin/env bash
# Builds egeria and the benchmark from this checkout's sources, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash bench/run.sh -workload hot-query -seed 1 -seconds 24 -trace 0
#   bash bench/run.sh -smoke
#
# Everything it builds or writes, the Go build cache and the Go command's
# own configuration and telemetry files included, stays under bench/.build/
# in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/egeria || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (needs go.mod, cmd/egeria and bench/)" >&2
	exit 2
fi

out="$(pwd)/bench/.build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local \
	XDG_CONFIG_HOME="$out/config"

go build -o "$out/egeria" ./cmd/egeria
(cd bench && go build -o "$out/egeriabench" ./egeriabench)
exec "$out/egeriabench" "$@"
