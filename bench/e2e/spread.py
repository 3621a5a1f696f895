#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end benchmark.

Runs every workload in BENCHMARK.json once per seed (seeds 1..RUNS,
workloads interleaved), SETS times over, exactly as

    <command> --workload W --seed N --seconds <run_seconds> --trace 0

and reports, per workload and end-to-end metric, the median of the runs
and their spread: the distance between the first and third quartile as
a share of the median. A spread over a third of the metric's bound, or a
median that moves between sets by more than the bound, is flagged.
Run from the repository root:

    python3 bench/e2e/spread.py --runs 10 --sets 3 --out bench/e2e/baseline.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=3)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="")
    a = p.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if a.workloads:
        names = [n for n in names if n in a.workloads.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    sets = []
    for s in range(a.sets):
        values = {n: {} for n in names}
        for seed in range(1, a.runs + 1):
            for n in names:
                t0 = time.time()
                got = run_once(bench["command"], n, seed, bench["run_seconds"])
                print(f"set {s + 1} {n} seed {seed}: {time.time() - t0:.1f} s",
                      file=sys.stderr, flush=True)
                for m, v in got.items():
                    values[n].setdefault(m, []).append(v)
        sets.append(values)
    rows = []
    flagged = False
    for n in names:
        print(f"\n{n}")
        print(f"  {'metric':16} {'bound':>6} " +
              " ".join(f"{'median':>12} {'spread':>7}" for _ in sets) +
              f" {'drift':>7}")
        for m, bound in bounds.items():
            stats = [spread(v[n][m]) for v in sets]
            drift = (stats[-1][0] - stats[0][0]) / stats[0][0]
            bad = (m != "setup_s" and any(sp > bound / 3 for _, sp in stats)) \
                or abs(drift) > bound
            flagged |= bad
            print(f"  {m:16} {bound:6.3f} " +
                  " ".join(f"{med:12.6g} {sp:7.2%}" for med, sp in stats) +
                  f" {drift:7.2%}" + ("  <--" if bad else ""))
            rows.append({
                "workload": n, "metric": m, "bound": bound, "drift": drift,
                "median": [med for med, _ in stats],
                "spread": [sp for _, sp in stats],
                "values": [v[n][m] for v in sets],
            })
    if a.out:
        # One line per workload and metric.
        with open(a.out, "w") as f:
            f.write(f'{{"runs_per_set": {a.runs}, '
                    f'"run_seconds": {bench["run_seconds"]}, "results": [\n')
            f.write(",\n".join(json.dumps(r) for r in rows))
            f.write("\n]}\n")
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
