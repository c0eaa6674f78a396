#!/bin/sh
# Build the benchmark harness and the pops binary from this checkout,
# then run the harness:
#
#   sh perfbench/run.sh --workload flow_grid --seed 1 --seconds 25 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# harness's JSON result.  Exits 2 without a result when the directory is
# not a POPS checkout.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "run.sh: $(pwd) is not a POPS checkout (dune-project, lib/, bin/)" >&2
  exit 2
fi
DUNE=$(command -v dune || true)
if [ -z "$DUNE" ]; then
  for d in "${OPAM_SWITCH_PREFIX:-/nonexistent}/bin" "$HOME"/.opam/*/bin; do
    if [ -x "$d/dune" ]; then DUNE="$d/dune"; break; fi
  done
fi
if [ -z "$DUNE" ]; then
  echo "run.sh: dune not found on PATH or in an opam switch" >&2
  exit 2
fi
PATH="$(dirname "$DUNE"):$PATH"
export PATH
"$DUNE" build --root . ./perfbench/pops_bench.exe ./bin/pops_cli.exe 1>&2
exec ./_build/default/perfbench/pops_bench.exe "$@"
