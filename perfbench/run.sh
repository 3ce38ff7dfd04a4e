#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload table4-10k --seed 1 --seconds 30 --trace 0
#
# Everything it builds or writes stays under .bench_build in the
# repository root: the Go build cache, the binary, scratch files of the
# serve-mix workload and the traced runs' spans.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root does not hold the faure sources" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -dir "$build" "$@"
