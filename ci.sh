#!/bin/sh
# Local CI: everything a commit must pass, in the order it fails fastest.
#
#   ./ci.sh         # build, fast test tier, then the bench gates:
#                   # observe, fuse, sched, tenant, serve, resil, regress,
#                   # the paper-figures golden, eff; then a format check
#                   # if .ocamlformat exists
#   ./ci.sh --fast  # same (the default tier, spelled out)
#   ./ci.sh --full  # same, but the complete test suite instead of the fast
#                   # tier, and the observe/tenant/eff gates at full size
#                   # (observe and tenant then diff their committed
#                   # baselines)
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

# Observability must be free: the observe stage runs fib and NUTS under
# the pc VM and the macro tenant trace bare and with every observer
# fanned out (trace, profiler and metrics; spans and an SLO monitor on
# the tenant trace), and exits nonzero unless each observed run is
# bitwise identical to its bare run (simulated clock included). The
# observers' own contracts are asserted too: the traces and the Perfetto
# span export re-parse, profiler attribution loses no time (<=1e-9
# relative) and its folded export is non-empty, every completion has a
# well-formed span tree with the lifecycle spans present, and the
# burn-rate monitor fires on the adversarial trace while staying silent
# on uniform. The fast tier caps the trace at 10k requests via
# AUTOBATCH_FAST and skips the baseline diff; the full tier fails if its
# document drifts from the committed BENCH_observe.json (delete the file
# to re-baseline).
step "bench observe gate"
if [ "$tier" = "@runtest-fast" ]; then
  AUTOBATCH_FAST=1 dune exec bench/main.exe -- observe
else
  dune exec bench/main.exe -- observe
fi

# Superblock fusion must pay for itself and stay invisible: the fuse
# stage compiles fib and eight_schools NUTS plain and fused, exits
# nonzero unless the fused builds are bitwise identical on every runtime
# (pc/local/sharded), save >=25% of their supersteps, and lower the
# simulated cost. Regenerates BENCH_fuse.json (deterministic).
step "bench fuse gate"
dune exec bench/main.exe -- fuse

# Scheduling policies and lane defragmentation must be invisible in the
# outputs and visible in the utilization: the sched stage exits nonzero
# unless every runtime is bitwise identical to the Earliest baseline
# under every policy and migration plan, and the defragmenting runtime's
# effective utilization clears its bar (>=2x on eight_schools z=64,
# >=1.5x on fib z=32). Regenerates BENCH_sched.json (deterministic).
step "bench sched gate"
dune exec bench/main.exe -- sched

# The multi-tenant stack must keep its SLOs without touching results:
# the tenant stage replays the paired bursty-overload trace (fair arm vs
# FIFO baseline, same injected device kill) plus the closed-form
# preemption and drain-migration scenarios, and exits nonzero unless
# every completion is bitwise identical to running the request alone,
# the program cache runs >=90% hot, the latency-bound histogram p99 is
# >=3x lower than the baseline's, and grow/shrink/preempt/resume/
# checkpoint/restore/migrate all actually fired. The fast tier caps the
# trace at 10k requests via AUTOBATCH_FAST and skips the baseline diff;
# the full tier runs the 20k trace and fails if it drifts from the
# committed BENCH_tenant.json (delete the file to re-baseline).
step "bench tenant gate"
if [ "$tier" = "@runtest-fast" ]; then
  AUTOBATCH_FAST=1 dune exec bench/main.exe -- tenant
else
  dune exec bench/main.exe -- tenant
fi

# Continuous batching must beat the fixed-batch regime without touching
# results: the serve stage runs the E5 sweep on one shard of the serving
# runtime and exits nonzero unless, at every load, continuous FIFO's
# mean occupancy is strictly above synchronous refill's and a seeded
# sample of completions is bitwise equal to solo runs (with or without
# --seed); without --seed it also diffs the committed BENCH_serve.json.
step "bench serve baseline"
dune exec bench/main.exe -- serve

# Checkpoint/restore must stay deterministic: the resil stage sweeps
# checkpoint intervals and fault rates over the pc and sharded runtimes
# (snapshot-and-replay drivers) and the serving runtime (its own
# in-memory shard checkpoints), and exits nonzero if the sweep
# (checkpoint bytes, replayed supersteps, the bitwise-recovery column)
# drifts from the committed BENCH_resil.json.
step "bench resil baseline"
dune exec bench/main.exe -- resil

# Simulated cost is a contract: the regress stage re-runs the
# fixed-seed probes (fib/NUTS under the pc VM, a 1k-request tenant
# trace) and exits nonzero if simulated cost or superstep counts
# regressed against the committed BENCH_observe.json baseline.
step "bench regress"
dune exec bench/main.exe -- regress

# The paper's numbers are a contract: Figures 5-6 and the ablation
# tables are priced on the simulated clock, so host-side changes (such as
# the program-counter VM computing only the active rows of flop-heavy
# primitives) must leave them byte-identical. The stages' wall-time
# trailer lines are dropped before the diff against the committed golden
# (regenerate it deliberately with the same pipeline).
step "paper figures golden"
figures=$(mktemp)
trap 'rm -f "$figures"' EXIT
dune exec bench/main.exe -- figure5 figure6 ablations >"$figures"
grep -v '^\[[a-z0-9]*\] wall ' "$figures" | diff -u test/figures_golden.txt -

# The handler-DSL frontend must elaborate to exactly the programs the
# hand-written models used to be: the eff stage exits nonzero unless
# every zoo model's elaborated density is bitwise identical across
# pc/local/shard, the gaussian spec matches its hand-rolled density
# bitwise, eight_schools NUTS matches the single-chain reference, and
# the three DSL workloads clear their gates (SMC vs the Kalman log
# marginal with real S20 lane migrations, tempering vs closed-form
# mixture moments with accepted exchanges, decision tree bitwise vs
# host evaluation). The fast tier shrinks particle counts, rounds, and
# tree depth via AUTOBATCH_FAST; the full tier regenerates the
# committed BENCH_eff.json (deterministic).
step "bench eff gate"
if [ "$tier" = "@runtest-fast" ]; then
  AUTOBATCH_FAST=1 dune exec bench/main.exe -- eff
else
  dune exec bench/main.exe -- eff
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
