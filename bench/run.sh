#!/usr/bin/env bash
# Builds the benchmark from source and runs it. bench/ is a module of its
# own, so `go run ./bench` from the root does not reach it; and a run may
# write only inside its checkout, so the Go build cache, the binary and the
# temporary directory (where traces go by default) are put under
# .bench_build/ at the root of the checkout. Usage, from the root:
#   bash bench/run.sh --workload xyce_step --seed 1 --seconds 15 --trace 0
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$(dirname "$here")/.bench_build
mkdir -p "$out/tmp"
export TMPDIR="$out/tmp" GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && XDG_CONFIG_HOME="$out/config" go build -o "$out/bench" .)
exec "$out/bench" "$@"
