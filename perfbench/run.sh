#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload from the checkout's root:
#
#   bash perfbench/run.sh --workload grid_cold --seed 1 --seconds 20 --trace 0
#
# Workloads: grid_cold, mesh_cold, eco_serve.  The last line of standard
# output is the JSON result; everything before it is commentary.
set -u
root="$(cd "$(dirname "$0")/.." && pwd)" || exit 2
cd "$root" || exit 2
if ! command -v dune >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
# keep every build product inside the checkout
export DUNE_CACHE=disabled
if ! dune build --root . ./perfbench/bench.exe 1>&2; then
  echo "perfbench: build failed" >&2
  exit 2
fi
exec ./_build/default/perfbench/bench.exe "$@"
