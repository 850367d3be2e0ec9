"""Run-to-run spread of every end-to-end metric, against its bound.

    python3 perfbench/steadiness.py --runs 10 --sets 2 --first-seed 100

Runs each workload ``--runs`` times per set through ``run.py``
(untraced), one seed per repetition (``--first-seed`` upwards, never
reused across sets), alternating the workload order between
repetitions so slow drift of the machine does not favour one workload.
Prints, per set, workload and metric: the median, the quartiles
(Python's ``statistics.quantiles(n=4)``), the interquartile range and
the min-max range as shares of the median, and the metric's bound from
``BENCHMARK.json``.  ``setup_s`` is reported the same way; it is set up
several times inside each run.  With two or more sets it then compares
each later set's median with the first set's: the shift in the
metric's worse direction, as a share of the first median, must stay
within the bound, as must every spread, and the share of failed
operations must be the same in every set.  Exits 1 if any of that
fails.  A ``setup_s`` spread above its bound is listed as a note, not a
failure: set-up is held by its median shift, its spread within a set is
not gated.  Run length is ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Tuple

import common


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(common.BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    completed = subprocess.run(command, cwd=common.ROOT,
                               stdout=subprocess.PIPE, text=True,
                               check=True)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def summarize(workload: str, results: List[dict], spec: dict) -> List[str]:
    lines = [f"{workload}: {len(results)} runs, failed/attempted "
             + ", ".join(f"{r['failed']}/{r['attempted']}"
                         for r in results)]
    lines.append(f"  {'metric':<15}{'median':>12}{'q1':>12}{'q3':>12}"
                 f"{'iqr/med':>9}{'range/med':>10}{'bound':>7}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        mid = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / mid
        span = (max(values) - min(values)) / mid
        lines.append(f"  {name:<15}{mid:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                     f"{spread:>9.3f}{span:>10.3f}{metric['bound']:>7}")
    return lines


def spread_problems(workload: str, results: List[dict], spec: dict
                    ) -> Tuple[List[str], List[str]]:
    """Spreads above their bound: (problems, notes on ``setup_s``)."""
    problems, notes = [], []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / statistics.median(values)
        if spread > metric["bound"]:
            line = (f"{workload} {name}: spread {spread:.3f} above its "
                    f"bound {metric['bound']}")
            (notes if name == "setup_s" else problems).append(line)
    return problems, notes


def compare_sets(workload: str, sets: List[List[dict]], spec: dict
                 ) -> Tuple[List[str], List[str]]:
    """Later sets' medians against the first set's, in each metric's
    worse direction; returns report lines and problems."""
    lines = [f"{workload}: set medians, shift of later sets (worse "
             f"direction, share of set 1)"]
    problems = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        medians = [statistics.median(r["metrics"][name]["value"]
                                     for r in results)
                   for results in sets]
        shifts = []
        for later in medians[1:]:
            change = (later - medians[0]) / medians[0]
            shifts.append(change if metric["better"] == "lower"
                          else -change)
        worst = max(shifts)
        flag = "ok" if worst <= metric["bound"] else "OVER"
        if flag != "ok":
            problems.append(f"{workload} {name}: median shifted "
                            f"{worst:+.3f} > bound {metric['bound']}")
        lines.append(f"  {name:<15}" + "".join(f"{m:>12.5g}"
                                              for m in medians)
                     + "".join(f"{x:>+9.3f}" for x in shifts)
                     + f"{metric['bound']:>7} {flag}")
    shares = {sum(r["failed"] for r in results)
              / sum(r["attempted"] for r in results) for results in sets}
    if len(shares) != 1:
        problems.append(f"{workload}: failed share differs between sets")
    return lines, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per workload in each set")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args(argv)
    common.require_program()
    spec = common.benchmark_spec()
    seconds = spec["run_seconds"]
    workloads = list(common.WORKLOADS)

    sets: List[Dict[str, List[dict]]] = [
        {w: [] for w in workloads} for _ in range(args.sets)]
    total = args.runs * args.sets
    for repetition in range(total):
        results = sets[repetition // args.runs]
        order = (workloads if repetition % 2 == 0
                 else list(reversed(workloads)))
        for workload in order:
            seed = args.first_seed + repetition
            result = run_once(workload, seed, seconds)
            result["seed"] = seed
            results[workload].append(result)
            print(f"run {repetition + 1}/{total} {workload} seed "
                  f"{seed}: " + ", ".join(
                      f"{k}={v['value']:.5g}"
                      for k, v in result["metrics"].items()),
                  flush=True)
    problems: List[str] = []
    notes: List[str] = []
    for index, results in enumerate(sets):
        first = args.first_seed + index * args.runs
        print(f"\nset {index + 1}: {args.runs} runs per workload, "
              f"{seconds} s each, seeds {first}..{first + args.runs - 1}")
        for workload in workloads:
            print("\n".join(summarize(workload, results[workload], spec)))
            found, noted = spread_problems(workload, results[workload],
                                           spec)
            problems += found
            notes += noted
    if args.sets > 1:
        print()
        for workload in workloads:
            lines, found = compare_sets(
                workload, [results[workload] for results in sets], spec)
            print("\n".join(lines))
            problems += found
    print("\n" + "\n".join(
        [f"note: {line}" for line in notes]
        + (problems or ["every gated spread and median shift within its "
                        "bound"])))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
