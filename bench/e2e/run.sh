#!/usr/bin/env bash
# Build the end-to-end benchmark from source and run it; run from the
# repository root. All arguments go to main.exe, e.g.
#
#   bash bench/e2e/run.sh --workload fib-z64 --seed 1 --seconds 12 --trace 0
#
# The build stays inside the checkout (_build/) and does not use dune's
# shared cache. Build output goes to stderr, so the last line on stdout
# is the benchmark's result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: no autobatch source tree here; run from the repository root" >&2
  exit 2
fi

export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
