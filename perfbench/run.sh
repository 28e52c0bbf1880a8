#!/usr/bin/env bash
# Build the compiler and the benchmark from source, then run one
# workload.  Run from the repository root:
#
#   bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 10 --trace 0
#
# The last line of stdout is the JSON result (see perfbench/README.md).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the repository root (dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi

# No shared dune cache: the build reads and writes only this checkout.
export DUNE_CACHE=disabled
dune build --root . -j 2 --display quiet \
  ./perfbench/perfbench.exe ./bin/mhlsc.exe >&2

exec ./_build/default/perfbench/perfbench.exe \
  --mhlsc ./_build/default/bin/mhlsc.exe "$@"
