#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root. Every build product and cache stays inside the checkout, under
# .bench_build/. Arguments pass through to the benchmark binary, e.g.
#
#   bash perfbench/run.sh --workload bulk-cold --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare base.jsonl head.jsonl
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

if [[ ! -f go.mod || ! -d internal ]]; then
	echo "perfbench: $root is not a sendervalid checkout; nothing to build" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
