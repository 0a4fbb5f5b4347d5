#!/usr/bin/env bash
# Benchmark entry point, run from the root of a source checkout:
#
#   bash bench/nwbench/run.sh --workload fd-augment --seed 1 --seconds 15 --trace 0
#
# Builds nwbench and forestd from source in this checkout (dune, build
# cache off so nothing is written outside it), then runs `nwbench run`
# with the given arguments. The last stdout line is the JSON result.
set -eu
export DUNE_CACHE=disabled
dune build --root . --display quiet bench/nwbench/nwbench.exe bin/forestd.exe >&2
exec ./_build/default/bench/nwbench/nwbench.exe run \
  --forestd ./_build/default/bin/forestd.exe "$@"
