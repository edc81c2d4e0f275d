#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; every
# argument is passed through. Run from the repository root:
#   bash benchmark/run.sh --workload engine-nodvs --seed 1 --seconds 30 --trace 0
# Build caches, scratch files and span output stay under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp"
(cd benchmark && go build -o "$out/bin/benchmark" .) >&2
exec "$out/bin/benchmark" --out "$out/out" "$@"
