#!/usr/bin/env bash
# Builds and runs locshortbench from a locshort checkout. Every build
# output, cache and temporary file stays under .bench_build/ at the root.
#
#   bash cmd/locshortbench/run.sh -workload warm-hit -seed 1 -seconds 10 -trace 0
#   bash cmd/locshortbench/run.sh -compare parent.jsonl change.jsonl
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -f cmd/locshortd/main.go ]]; then
	echo "locshortbench: $root is not a locshort checkout (no go.mod or cmd/locshortd)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin" "$build/config" "$build/cache"
# The go command's caches, module cache, temporary files and telemetry
# counters (kept under the user config directory) all stay in the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=
go -C cmd/locshortbench build -o "$build/bin/locshortbench" .
exec "$build/bin/locshortbench" "$@"
