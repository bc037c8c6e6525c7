#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload.
#
#   bash labbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the result
# JSON. Fails (nonzero exit, no result) when the sources do not build.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --display quiet ./labbench/labbench.exe 1>&2
exec ./_build/default/labbench/labbench.exe "$@"
