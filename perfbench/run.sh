#!/usr/bin/env bash
# Builds the perfbench command from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload l20-suite --seed 1 --seconds 36 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the binary, the store's temporary
# data directories and the span dumps of traced runs.
set -euo pipefail

if [[ ! -f go.mod || ! -d perfbench ]]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache"
export GOPATH="$out/go-path"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" --workdir "$out" "$@"
