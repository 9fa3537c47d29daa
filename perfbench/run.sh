#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it runs in and runs
# it with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload wavefront --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# and the traced run's spans go under .bench_build/perfbench.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans.json" "$@"
