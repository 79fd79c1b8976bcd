#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#   bash perfbench/run.sh --workload sim-scale --seed 1 --seconds 10 --trace 0
# Run it from the repository root. Every build product (binary, Go build
# cache) goes to .bench_build/ under the root; nothing is written elsewhere.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: $root is not an asvm source tree (no go.mod or internal/)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
