#!/bin/sh
# Builds the benchmark and the CLI it drives from source, then runs one
# workload. Run from the repository root:
#   sh perf/run.sh --workload registry --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; the result is the last line of stdout.
set -eu
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./perf/aqed_perf.exe ./bin/aqed_cli.exe >&2
exec ./_build/default/perf/aqed_perf.exe "$@"
