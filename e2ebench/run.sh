#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it there; every argument is passed on. Run it from the repository
# root:
#
#   bash e2ebench/run.sh --workload ruleset-scan --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary) and the span dumps
# of traced runs stay under .bench_build/ in the current directory.
#
# The benchmark runs as a child of this script, not in its place (no
# exec): setup_s counts from the kernel start time of the benchmark's own
# process, which must therefore begin after the build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd e2ebench && go build -o "$out/e2ebench" .)
status=0
"$out/e2ebench" "$@" || status=$?
exit "$status"
