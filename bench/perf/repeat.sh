#!/usr/bin/env bash
# Run the whole benchmark twice with the same arguments, then check that
# every end-to-end metric on every workload of the second run lies
# within its BENCHMARK.json bound of the first. Exits non-zero when a
# run fails or the two disagree. Extra arguments go to both runs, e.g.
#   bash bench/perf/repeat.sh --seed 7
# The two outputs are kept in perf_out/repeat/.
set -euo pipefail
cd "$(dirname "$0")/../.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe
perf=./_build/default/bench/perf/perf.exe
out=perf_out/repeat
mkdir -p "$out"
"$perf" "$@" | tee "$out/run1.txt"
"$perf" "$@" | tee "$out/run2.txt"
"$perf" --compare "$out/run1.txt" "$out/run2.txt"
