#!/bin/sh
# Builds the benchmark program and the hwpat daemon from source, then runs
# one workload.  Run from the repository root:
#   sh perfbench/run.sh --workload sim_video --seed 1 --seconds 10 --trace 0
# Build output goes to stderr so the last line of stdout stays the result.
dune build --root . --build-dir .bench_build \
  ./perfbench/src/main.exe ./bin/hwpat.exe >&2 || exit 1
exec ./.bench_build/default/perfbench/src/main.exe "$@"
