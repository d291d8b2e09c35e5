#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it with the
# given arguments, e.g.
#   bash bench/perf/run.sh --workload omp64-seq --seed 7 --seconds 10 --trace 0
# Build output goes to stderr, so the benchmark's stdout is all that
# reaches stdout.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
