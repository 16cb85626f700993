#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it:
#
#   bash bench/run.sh --workload query-10k --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. The Go build cache, the built binaries
# and every run directory live under .bench_build/ in the checkout, so a run
# reads and writes nothing outside it. See bench/README.md.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/ssrec-server || ! -d cmd/ssrec-shardd ]]; then
  echo "bench: run from the root of an ssrec checkout (go.mod, cmd/ssrec-server and cmd/ssrec-shardd are missing here)" >&2
  exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C bench build -o "$out/bin/ssrec-benchmark" .
exec "$out/bin/ssrec-benchmark" -root "$PWD" -out "$out" "$@"
