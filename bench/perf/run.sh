#!/bin/sh
# Build the benchmark from the sources of the checkout it is run in, then
# run it with the given arguments.  Run from the repository root, e.g.
#   sh bench/perf/run.sh --workload closed_voting --seed 1 --seconds 20 --trace 0
# Build output goes to stderr; stdout carries only the benchmark's lines.
set -e
dune build --root . --cache=disabled --display=quiet -j 2 ./bench/perf/main.exe >&2
exec ./_build/default/bench/perf/main.exe "$@"
