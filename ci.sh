#!/bin/sh
# Local CI: everything a commit must pass, in the order it fails fastest.
#
#   ./ci.sh         # build, the fast test tier, every bench gate (observe,
#                   # tenant and eff in their shrunk AUTOBATCH_FAST arms,
#                   # which are not diffed), then a format check if
#                   # .ocamlformat exists
#   ./ci.sh --fast  # same (the default tier, spelled out)
#   ./ci.sh --full  # same, but the complete test suite and every bench
#                   # gate at full size, so observe, tenant and eff diff too
#
# The bench runs every stage listed in the bench/main.ml header. Each
# stage checks its own claims, then its one deterministic document is
# compared byte for byte with its committed file (a BENCH_*.json,
# test/figures_golden.txt or test/scaling_golden.csv); a drift or a
# missing file fails the run. HACKING.md explains how to re-baseline.
#
# Mirrors HACKING.md: run before committing; run --full before merging.
set -eu

step() {
  printf '\n== %s ==\n' "$1"
}

tier="@runtest-fast"
for arg in "$@"; do
  case "$arg" in
    --fast) tier="@runtest-fast" ;;
    --full) tier="@runtest" ;;
    *)
      echo "usage: ./ci.sh [--fast|--full]" >&2
      exit 2
      ;;
  esac
done

step "dune build"
dune build

step "tests ($tier)"
dune build "$tier"

step "bench gates"
if [ "$tier" = "@runtest-fast" ]; then
  AUTOBATCH_FAST=1 dune exec bench/main.exe
else
  dune exec bench/main.exe
fi

# Format check only where a profile exists: the repo ships without an
# .ocamlformat, and an unpinned default would reformat the world.
if [ -f .ocamlformat ]; then
  step "format check"
  dune build @fmt
else
  step "format check skipped (no .ocamlformat)"
fi

printf '\nci.sh: all checks passed\n'
