#!/usr/bin/env bash
# Builds the taskml benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload train|reduce|serve --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary (which the
# loopback workers re-exec) and the traced run's outputs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" "$@"
